import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wnucsp.cli import execute_command
from wnucsp.errors import (
    AffineStructureViolation,
    FormatError,
    InvariantError,
    OracleError,
    PreconditionError,
    WnuInvalid,
)
from wnucsp.fileformat import (
    build_instance,
    parse_instance,
    parse_instance_text,
    serialize_instance,
)
from wnucsp.harness import GenParams, random_instance
from wnucsp.algebra import OperationTable, minority_table, sum_table
from wnucsp.solver import Solver


def z4_instance_text():
    lines = ["DOMAIN D 4", "WNU D 5 SUM"]
    for i in (1, 2, 3, 4):
        lines.append("VAR x%d D" % i)
    systems = [
        ("E1", (1, 2, 1, 1), 0, 4),
        ("E2", (2, 1, 1, 1), 0, 4),
        ("E3", (1, 1), 2, 2),
        ("E4", (1, 1, 2, 2), 0, 4),
    ]
    for name, coeffs, rhs, arity in systems:
        lines.append("REL %s %d %s" % (name, arity, " ".join(["D"] * arity)))
        for t in sorted(itertools.product(range(4), repeat=arity)):
            if sum(c * v for c, v in zip(coeffs, t)) % 4 == rhs:
                lines.append(" ".join(map(str, t)))
        lines.append("END")
    lines += ["CON E1 x1 x2 x3 x4", "CON E2 x1 x2 x3 x4",
              "CON E3 x1 x2", "CON E4 x1 x2 x3 x4"]
    return "\n".join(lines) + "\n"


NAE_TEXT = """DOMAIN B 2
VAR a B
VAR b B
VAR c B
REL NAE 3 B B B
0 0 1
0 1 0
0 1 1
1 0 0
1 0 1
1 1 0
END
CON NAE a b c
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = execute_command(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4.csp"
    path.write_text(z4_instance_text())
    return str(path)


@pytest.fixture
def nae_file(tmp_path):
    path = tmp_path / "nae.csp"
    path.write_text(NAE_TEXT)
    return str(path)


# --- parsing ------------------------------------------------------------------


def test_parse_golden_file():
    inst = parse_instance(z4_instance_text())
    assert inst.variables == ("x1", "x2", "x3", "x4")
    assert inst.base_algebras[0].wnu == sum_table(4, 5)


def test_parse_missing_end_reports_line():
    text = "DOMAIN B 2\nVAR x B\nREL R 1 B\n0\nCON R x\n"
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert err.value.line == 3


def test_parse_unknown_directive_line():
    with pytest.raises(FormatError) as err:
        parse_instance("DOMAIN B 2\nBOGUS x\n")
    assert err.value.line == 2


def test_parse_out_of_range_tuple():
    text = "DOMAIN B 2\nVAR x B\nREL R 1 B\n2\nEND\nCON R x\n"
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert err.value.line == 4


def test_parse_con_arity_mismatch():
    text = "DOMAIN B 2\nVAR x B\nVAR y B\nREL R 1 B\n0\nEND\nCON R x y\n"
    with pytest.raises(FormatError) as err:
        parse_instance_text(text)
    assert err.value.line == 7


def test_parse_rejects_non_wnu_table():
    # first projection is not a WNU
    entries = " ".join(str(a) for a, b, c in
                       itertools.product(range(2), repeat=3))
    text = "DOMAIN B 2\nWNU B 3 %s\nVAR x B\n" % entries
    with pytest.raises(WnuInvalid):
        parse_instance(text)


def test_parse_rejects_sum_when_not_special():
    # x1+x2+x3 mod 3 is not idempotent
    with pytest.raises(WnuInvalid):
        parse_instance("DOMAIN T 3\nWNU T 3 SUM\nVAR x T\n")


def test_parse_checks_each_wnu_table_once(monkeypatch):
    from wnucsp import algebra, fileformat

    calls = []
    verify = algebra.verify_special_wnu

    def counting(table):
        calls.append(table)
        return verify(table)

    for module in (algebra, fileformat):
        monkeypatch.setattr(module, "verify_special_wnu", counting)
    parse_instance(z4_instance_text())
    assert calls == [sum_table(4, 5)]


def test_build_rejects_non_special_extra_wnu():
    first = OperationTable(3, 2, tuple(
        a for a, _, _ in itertools.product(range(2), repeat=3)))
    parsed = parse_instance_text("DOMAIN B 2\nVAR x B\n")
    with pytest.raises(InvariantError):
        build_instance(parsed, {"B": first})


def test_parse_rejects_unpreserved_relation():
    text = ("DOMAIN B 2\nWNU B 3 SUM\nVAR a B\nVAR b B\nVAR c B\n"
            "REL NAE 3 B B B\n0 0 1\n0 1 0\n0 1 1\n1 0 0\n1 0 1\n1 1 0\nEND\n"
            "CON NAE a b c\n")
    with pytest.raises(WnuInvalid):
        parse_instance(text)


def test_parse_shares_validated_relations(monkeypatch):
    from wnucsp import fileformat

    checks = []
    is_invariant = fileformat.is_invariant
    monkeypatch.setattr(fileformat, "is_invariant",
                        lambda rel: checks.append(rel) or is_invariant(rel))
    text = z4_instance_text()
    first = parse_instance(text)
    checked = len(checks)
    second = parse_instance(text)
    for a, b in zip(first.constraints, second.constraints, strict=True):
        assert a.relation is b.relation
    # a relation an earlier test left alive is not checked even once
    assert checked <= len(parse_instance_text(text).relations)
    assert len(checks) == checked


def test_parse_rejects_unpreserved_relation_every_time():
    text = ("DOMAIN B 2\nWNU B 3 SUM\nVAR a B\nVAR b B\nVAR c B\n"
            "REL NAE 3 B B B\n0 0 1\n0 1 0\n0 1 1\n1 0 0\n1 0 1\n1 1 0\n"
            "END\nCON NAE a b c\n")
    for _ in range(2):
        with pytest.raises(WnuInvalid):
            parse_instance(text)


def test_parse_keeps_placeholder_relations_apart():
    text = "DOMAIN B 2\nVAR x B\nREL R 1 B\n0\nEND\nCON R x\n"
    first, second = (build_instance(parse_instance_text(text),
                                    placeholder_ok=True) for _ in range(2))
    assert first.constraints[0].relation == second.constraints[0].relation
    assert first.constraints[0].relation is not second.constraints[0].relation


def test_parse_normalizes_repeated_scope():
    text = ("DOMAIN B 2\nWNU B 3 SUM\nVAR x B\n"
            "REL R 2 B B\n0 0\n0 1\n1 0\n1 1\nEND\nCON R x x\n")
    inst = parse_instance(text)
    c = inst.constraints[0]
    assert c.scope == ("x",)
    assert c.relation.tuples == {(0,), (1,)}


def test_roundtrip_serialization():
    for seed in range(6):
        params = GenParams(2, 3, 4, 4, 3, seed, wnu=minority_table())
        inst, _ = random_instance(params)
        text = serialize_instance(inst)
        again = parse_instance(text)
        # identical modulo variable/relation naming of equal content
        assert len(again.variables) == len(inst.variables)
        assert again.canonical_key()[2:] == inst.canonical_key()[2:]
        assert sorted(
            (c.scope, tuple(sorted(c.relation.tuples)))
            for c in again.constraints
        ) == sorted(
            (c.scope, tuple(sorted(c.relation.tuples)))
            for c in inst.constraints
        )
        assert parse_instance(serialize_instance(again)).canonical_key() \
            == again.canonical_key()


# --- commands -----------------------------------------------------------------


def test_solve_command_golden(z4_file):
    code, out, _ = run_cli(["solve", z4_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "SAT"
    assert set(lines[1:]) == {"x1=1", "x2=1", "x3=0", "x4=1"}


def test_solve_command_json(z4_file):
    code, out, _ = run_cli(["solve", z4_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "sat"
    assert payload["assignment"] == {"x1": 1, "x2": 1, "x3": 0, "x4": 1}


def test_solve_command_trace(z4_file):
    code, _, err = run_cli(["solve", z4_file, "--trace"])
    assert code == 0
    assert "[trace]" in err


def test_solve_json_counts_the_printed_trace_events(z4_file):
    code, out, err = run_cli(["solve", z4_file, "--trace", "--json"])
    assert code == 0
    printed = sum(line.startswith("[trace]") for line in err.splitlines())
    assert json.loads(out)["trace_events"] == printed > 0


def test_solve_no_wnu(nae_file):
    code, out, _ = run_cli(["solve", nae_file])
    assert code == 2
    assert out.strip() == "NO-WNU"


def test_classify_no_wnu_json(nae_file):
    code, out, _ = run_cli(["classify", nae_file, "--json"])
    assert code == 2
    assert json.loads(out) == {"command": "classify", "decision": "no-wnu",
                               "decisive": True}


def test_wnu_command_none(nae_file):
    code, out, _ = run_cli(["wnu", nae_file, "--arity", "3"])
    assert code == 2
    assert out.strip() == "NONE"


def test_wnu_command_finds_xor(tmp_path):
    text = ("DOMAIN B 2\nVAR x B\nVAR y B\nVAR z B\n"
            "REL XOR 3 B B B\n0 0 0\n0 1 1\n1 0 1\n1 1 0\nEND\n"
            "CON XOR x y z\n")
    path = tmp_path / "xor.csp"
    path.write_text(text)
    code, out, _ = run_cli(["wnu", str(path), "--arity", "3"])
    assert code == 0
    assert out.split() == ["0", "1", "1", "0", "1", "0", "0", "1"]


def test_classify_command(z4_file):
    code, out, _ = run_cli(["classify", z4_file])
    assert code == 0
    assert "linear-quotient" in out
    assert "[0, 2]" in out


def test_oracle_command(z4_file):
    code, out, _ = run_cli(["oracle", z4_file, "--all"])
    assert code == 0
    assert "COUNT 8" in out


def test_oracle_runs_without_wnu(nae_file):
    # the brute-force oracle does not need the operation
    code, out, _ = run_cli(["oracle", nae_file])
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_max_domain_flag(z4_file):
    code, _, err = run_cli(["solve", z4_file, "--max-domain", "2"])
    assert code == 3
    assert "above the cap" in err


def test_oracle_unsat_exit(tmp_path):
    text = ("DOMAIN B 2\nWNU B 3 SUM\nVAR x B\n"
            "REL R 1 B\nEND\nCON R x\n")
    path = tmp_path / "unsat.csp"
    path.write_text(text)
    code, out, _ = run_cli(["oracle", str(path)])
    assert code == 1 and out.strip() == "UNSAT"


def test_gen_and_solve_roundtrip(tmp_path):
    path = tmp_path / "gen.csp"
    code, _, _ = run_cli([
        "gen", "--seed", "4", "--domain-size", "4", "--wnu-arity", "5",
        "--wnu", "sum", "--vars", "4", "--constraints", "4", "--out",
        str(path)])
    assert code == 0
    code, out, _ = run_cli(["solve", str(path)])
    assert code in (0, 1)
    code2, out2, _ = run_cli(["oracle", str(path)])
    assert (code == 0) == (code2 == 0)


def test_gen_rejects_options_it_does_not_read(z4_file):
    code, _, err = run_cli([
        "gen", "--seed", "4", "--domain-size", "2", "--wnu", "minority",
        "--max-nodes", "5"])
    assert code == 3
    assert err.startswith("usage: wnucsp gen "), err
    # the file commands take only the options they read
    for argv in (["wnu", z4_file, "--arity", "3", "--max-domain", "1"],
                 ["wnu", z4_file, "--arity", "3", "--wnu-arities", "3"],
                 ["oracle", z4_file, "--max-nodes", "5"],
                 ["oracle", z4_file, "--wnu-arities", "9"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (3, ""), argv
        # the usage printed is the command's own
        assert err.startswith("usage: wnucsp %s " % argv[0]), err
        assert "unrecognized arguments: %s" % argv[-2] in err, err


def test_difftest_command():
    code, out, _ = run_cli([
        "difftest", "--n", "10", "--seed", "0", "--domain-size", "2",
        "--wnu", "minority", "--vars", "4", "--constraints", "4"])
    assert code == 0
    assert "10/10 agreements" in out


def test_difftest_six_element_domain_uses_complete_center_search():
    # the default center cap of 3 is too small for a 6-element domain
    code, out, err = run_cli([
        "difftest", "--n", "1", "--seed", "100013", "--domain-size", "6",
        "--wnu", "sum", "--wnu-arity", "7", "--vars", "6", "--constraints",
        "6", "--sat-bias"])
    assert code == 0, err
    assert "1/1 agreements" in out


def test_usage_error_exit():
    code, _, _ = run_cli(["solve", "/nonexistent/file.csp"])
    assert code == 3


def test_format_error_exit(tmp_path):
    path = tmp_path / "bad.csp"
    path.write_text("NONSENSE\n")
    code, _, err = run_cli(["solve", str(path)])
    assert code == 3
    assert "line 1" in err


@pytest.mark.parametrize("error", [AffineStructureViolation, OracleError,
                                   PreconditionError])
def test_internal_breach_exit(z4_file, monkeypatch, error):
    def breach(self, inst):
        raise error("breach")

    monkeypatch.setattr(Solver, "solve", breach)
    code, _, err = run_cli(["solve", z4_file])
    assert code == 4
    assert "internal error:" in err
