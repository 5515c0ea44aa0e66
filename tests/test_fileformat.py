"""The instance-file parser against ``reference_fileformat``, the parser it
replaced, on the benchmark's file texts and on mutations of a few of them;
and the parsed objects' memory against constructor-built ones."""

import sys

import pytest

from wnucsp.errors import FormatError
from wnucsp import fileformat
from wnucsp.fileformat import parse_instance, parse_instance_text
from wnucsp.instance import Constraint, Instance

import reference_fileformat as reference
from test_solver import _load_workloads


@pytest.fixture(scope="module")
def file_texts():
    """The texts of the benchmark's seed-0 ``files`` workload."""

    with pytest.MonkeyPatch.context() as mp:
        workloads = _load_workloads(mp)
    return [item.text for item in workloads.build("files", 0)]


def _outcome(parser, text):
    """What ``parser`` makes of ``text``: the parsed fields, with each
    relation's tuples in iteration order, then the instance built from
    them with and without placeholder algebras (its fields and its
    variable index).  A step that raises gives its error's class, message
    and line instead; a parse that raises ends the outcome."""

    out = []
    try:
        parsed = parser.parse_instance_text(text)
    except Exception as exc:
        return [(type(exc), str(exc), getattr(exc, "line", None))]
    out.append((vars(parsed), [list(tuples) for _, tuples in
                               parsed.relations.values()]))
    for placeholder_ok in (False, True):
        try:
            inst = parser.build_instance(parsed,
                                         placeholder_ok=placeholder_ok)
        except Exception as exc:
            out.append((type(exc), str(exc), getattr(exc, "line", None)))
        else:
            out.append((inst, inst._index))
    return out


def test_parsers_agree_on_the_benchmark_texts(file_texts):
    assert len(file_texts) == 206
    for text in file_texts:
        outcome = _outcome(fileformat, text)
        assert outcome == _outcome(reference, text)
        assert len(outcome) == 3 and isinstance(outcome[1][0], Instance)


# Two domains, so the columns of one block read different token maps.
MIXED_TEXT = """\
DOMAIN A 2
WNU A 3 SUM
DOMAIN B 3
WNU B 3 0 0 0 0 1 0 0 0 2 0 1 1 1 1 1 1 1 2 0 2 2 2 1 2 2 2 2
VAR a A
VAR b B
VAR c B
REL P 2 A B
0 0
0 1
0 2
1 0
1 1
1 2
END
REL Q 2 B A
0 0
0 1
END
CON P a b
CON Q c a
CON P a c
"""


def _mutations(text):
    """(label, text) pairs: every line deleted or doubled; one entry of each
    tuple line replaced by a token outside the domain's map, or the line
    given an extra token; and the block layout varied."""

    lines = text.splitlines()
    for k in range(len(lines)):
        yield "delete %d" % k, "\n".join(lines[:k] + lines[k + 1:])
        yield "double %d" % k, "\n".join(lines[:k + 1] + lines[k:])
    sizes = {}
    tuple_lines = []
    for k, line in enumerate(lines):
        tokens = line.split()
        if tokens[0] == "DOMAIN":
            sizes[tokens[1]] = tokens[2]
        elif tokens[0] == "REL":
            doms = tokens[3:]
        elif tokens[0] != "END" and tokens[0][0].isdigit():
            tuple_lines.append((k, doms))
    for k, doms in tuple_lines:
        tokens = lines[k].split()
        col = k % len(tokens)
        for bad in ("x", "-1", "01", "+1", "0_1", sizes[doms[col]]):
            changed = tokens[:col] + [bad] + tokens[col + 1:]
            yield ("entry %d %r" % (k, bad),
                   "\n".join(lines[:k] + [" ".join(changed)] + lines[k + 1:]))
        yield ("extra token %d" % k,
               "\n".join(lines[:k] + [lines[k] + " 0"] + lines[k + 1:]))
    yield "tabs", text.replace(" ", "\t")
    yield "crlf", text.replace("\n", "\r\n")
    yield "blank lines in blocks", "\n".join(
        line + "\n" if line.startswith("REL") else
        " \t\n" + line if line == "END" else line for line in lines)
    for end in ("END  ", "END # c", "  END", "END#c"):
        yield "first %r" % end, text.replace("\nEND\n", "\n%s\n" % end, 1)
        yield "every %r" % end, text.replace("\nEND\n", "\n%s\n" % end)
    yield "comments", "# c\n" + text.replace("\n", " # c\n", 5)
    last = max(k for k, line in enumerate(lines) if line == "END")
    yield "missing END at the end", "\n".join(lines[:last])
    first = lines.index("END")
    yield "missing END before a directive", "\n".join(
        lines[:first] + lines[first + 1:])


def _end_with_tokens(text):
    """``text`` with its first END line given a further token, and the
    number of that line."""

    lines = text.splitlines()
    k = lines.index("END")
    return "\n".join(lines[:k] + ["END junk"] + lines[k + 1:]), k + 1


def test_parsers_agree_on_mutated_texts(file_texts):
    """Every mutation parses and builds as the reference does, or raises
    the same error.  The one intended difference: END with further tokens
    closed its block before, and now raises."""

    bases = [MIXED_TEXT, file_texts[0],
             next(t for t in file_texts if " SUM\n" in t)]
    seen = set()
    for base in bases:
        for label, text in _mutations(base):
            outcome = _outcome(fileformat, text)
            assert outcome == _outcome(reference, text), label
            seen.add(len(outcome) == 1)
        text, line = _end_with_tokens(base)
        with pytest.raises(FormatError) as err:
            parse_instance_text(text)
        assert (str(err.value), err.value.line) == (
            "line %d: END takes no further tokens" % line, line)
        assert len(_outcome(reference, text)) == 3
    # both parse errors and built instances are compared
    assert seen == {True, False}


def test_parse_maps_a_bounded_prefix_of_a_huge_domain():
    """A huge declared domain costs no more than its line, and an entry past
    the token map still parses."""

    parsed = parse_instance_text(
        "DOMAIN D 1000000000\nVAR x D\nREL R 1 D\n999999999\nEND\n")
    assert parsed.relations["R"] == (("D",), frozenset({(999999999,)}))


def test_parsed_objects_are_as_compact_as_constructed_ones(file_texts):
    """A parsed instance and its constraints, built without their
    constructors' checks, keep instance dicts no larger than the same
    objects built by the constructors."""

    def size(obj):
        return sys.getsizeof(vars(obj))

    for text in file_texts[:20] + [MIXED_TEXT]:
        parsed = parse_instance(text)
        built = Instance(parsed.variables, parsed.base_algebras,
                         parsed.current_domains,
                         tuple(Constraint(c.relation, c.scope)
                               for c in parsed.constraints))
        assert built == parsed
        assert size(parsed) <= size(built)
        for c, d in zip(parsed.constraints, built.constraints, strict=True):
            assert size(c) <= size(d)


def test_blocks_after_a_line_by_line_read_are_read_that_way(monkeypatch):
    """Once a block's END is not an exact ``END`` line, the later blocks
    skip the search for one, which would otherwise scan to the end of the
    text once per block."""

    calls = []
    block_rows = fileformat._block_rows
    monkeypatch.setattr(fileformat, "_block_rows",
                        lambda *args: calls.append(args) or block_rows(*args))
    lines = ["DOMAIN D 2", "VAR x D"]
    for b in range(5):
        lines += ["REL R%d 1 D" % b, "0", "1", "END # R%d" % b]
    text = "\n".join(lines + ["REL Z 1 D", "0", "END"]) + "\n"
    parsed = parse_instance_text(text)
    assert len(calls) == 1
    assert parsed == reference.parse_instance_text(text)
