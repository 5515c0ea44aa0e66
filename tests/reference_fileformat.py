"""Reference for ``wnucsp.fileformat``: the instance-file parser as it was
before REL blocks were read as one unit and instances were assembled from
the parser's checked parts.

``parse_instance_text`` reads the text line by line and gathers each REL
block's (line number, tokens) pairs until its END; ``_block_tuples``
converts a block with one ``int`` pass and range-checks it per column, and
on a fault checks the lines one at a time.  ``build_instance`` builds every
relation, constraint and instance through its public constructor, so each
runs its own checks.  Validated relations are shared through this module's
own cache, apart from the package's."""

import itertools
import sys
import weakref

from wnucsp.algebra import (
    Algebra,
    OperationTable,
    make_algebra,
    sum_table,
    verify_special_wnu,
)
from wnucsp.errors import FormatError, WnuInvalid
from wnucsp.fileformat import ParsedFile
from wnucsp.instance import Instance, normalize_scope
from wnucsp.relation import Relation, is_invariant


_PARSED_RELATIONS = weakref.WeakValueDictionary()


_DIRECTIVES = frozenset(("DOMAIN", "WNU", "VAR", "REL", "CON"))


def _block_tuples(name, doms, lines, sizes):
    """The tuple set of one REL block, from its (line number, tokens)
    pairs.  A block without faults costs one ``int`` pass over its tokens
    and one range check per column; otherwise the lines are checked in
    order and the first fault raises with its line number."""

    r = len(doms)
    if lines and all(len(tokens) == r for _, tokens in lines):
        try:
            values = list(map(int, itertools.chain.from_iterable(
                tokens for _, tokens in lines)))
        except ValueError:
            pass
        else:
            columns = [values[c::r] for c in range(r)]
            if all(min(col) >= 0 and max(col) < sizes[d]
                   for col, d in zip(columns, doms)):
                # through a set, as the line-by-line check builds it, so the
                # frozenset keeps the same iteration order
                return frozenset(set(zip(*columns)))
    tuples = set()
    for lineno, tokens in lines:
        if len(tokens) != r:
            raise FormatError("tuple arity mismatch in REL %s" % name,
                              line=lineno)
        try:
            values = tuple(map(int, tokens))
        except ValueError:
            raise FormatError("non-integer tuple entry", line=lineno)
        for v, d in zip(values, doms):
            if not 0 <= v < sizes[d]:
                raise FormatError("tuple entry %d outside %s" % (v, d),
                                  line=lineno)
        tuples.add(values)
    return frozenset(tuples)


def parse_instance_text(text) -> ParsedFile:
    parsed = ParsedFile()
    declared = set()  # variable names
    rel_open = None  # (name, domain names, (line number, tokens) pairs, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if rel_open is not None and key != "END":
            if key in _DIRECTIVES:
                # a fault in the block's lines comes first
                name, doms, lines, opened = rel_open
                _block_tuples(name, doms, lines, parsed.domains)
                raise FormatError("REL %s missing END" % name, line=opened)
            rel_open[2].append((lineno, tokens))
            continue
        if key == "END":
            if rel_open is None:
                raise FormatError("END without REL", line=lineno)
            name, doms, lines, _ = rel_open
            parsed.relations[name] = (
                tuple(doms), _block_tuples(name, doms, lines, parsed.domains))
            rel_open = None
        elif key == "DOMAIN":
            if len(tokens) != 3:
                raise FormatError("DOMAIN needs a name and a size", line=lineno)
            name = tokens[1]
            if name in parsed.domains:
                raise FormatError("duplicate domain %s" % name, line=lineno)
            try:
                size = int(tokens[2])
            except ValueError:
                raise FormatError("domain size must be an integer", line=lineno)
            if size < 1:
                raise FormatError("domain size must be positive", line=lineno)
            parsed.domains[name] = size
        elif key == "WNU":
            if len(tokens) < 4:
                raise FormatError("WNU needs a domain, arity, and table",
                                  line=lineno)
            dom = tokens[1]
            if dom not in parsed.domains:
                raise FormatError("unknown domain %s" % dom, line=lineno)
            try:
                arity = int(tokens[2])
            except ValueError:
                raise FormatError("WNU arity must be an integer", line=lineno)
            n = parsed.domains[dom]
            if tokens[3] == "SUM":
                if len(tokens) != 4:
                    raise FormatError("SUM takes no further tokens", line=lineno)
                table = sum_table(n, arity)
            else:
                entries = tokens[3:]
                if len(entries) != n ** arity:
                    raise FormatError(
                        "WNU table needs %d entries, got %d"
                        % (n ** arity, len(entries)), line=lineno)
                try:
                    table = OperationTable(arity, n, tuple(map(int, entries)))
                except ValueError:
                    raise FormatError("non-integer table entry", line=lineno)
            if dom in parsed.wnus:
                raise FormatError("duplicate WNU for %s" % dom, line=lineno)
            violations = verify_special_wnu(table)
            if violations:
                raise WnuInvalid(
                    "WNU for %s violates %s at %s"
                    % (dom, violations[0][0], violations[0][1]),
                    witness=violations[0], line=lineno)
            parsed.wnus[dom] = table
        elif key == "VAR":
            if len(tokens) != 3:
                raise FormatError("VAR needs a name and a domain", line=lineno)
            if tokens[2] not in parsed.domains:
                raise FormatError("unknown domain %s" % tokens[2], line=lineno)
            if tokens[1] in declared:
                raise FormatError("duplicate variable %s" % tokens[1],
                                  line=lineno)
            declared.add(tokens[1])
            parsed.variables.append((sys.intern(tokens[1]), tokens[2]))
        elif key == "REL":
            if len(tokens) < 4:
                raise FormatError("REL needs a name, arity, and domains",
                                  line=lineno)
            name = tokens[1]
            if name in parsed.relations:
                raise FormatError("duplicate relation %s" % name, line=lineno)
            try:
                arity = int(tokens[2])
            except ValueError:
                raise FormatError("REL arity must be an integer", line=lineno)
            doms = tokens[3:]
            if len(doms) != arity:
                raise FormatError("REL %s declares %d domains for arity %d"
                                  % (name, len(doms), arity), line=lineno)
            for d in doms:
                if d not in parsed.domains:
                    raise FormatError("unknown domain %s" % d, line=lineno)
            rel_open = (name, doms, [], lineno)
        elif key == "CON":
            if len(tokens) < 3:
                raise FormatError("CON needs a relation and variables",
                                  line=lineno)
            if tokens[1] not in parsed.relations:
                raise FormatError("unknown relation %s" % tokens[1],
                                  line=lineno)
            arity = len(parsed.relations[tokens[1]][0])
            if len(tokens) - 2 != arity:
                raise FormatError("CON %s has %d variables for arity %d"
                                  % (tokens[1], len(tokens) - 2, arity),
                                  line=lineno)
            for v in tokens[2:]:
                if v not in declared:
                    raise FormatError("unknown variable %s" % v, line=lineno)
            parsed.constraints.append(
                (tokens[1], tuple(map(sys.intern, tokens[2:]))))
        else:
            raise FormatError("unknown directive %s" % key, line=lineno)
    if rel_open is not None:
        name, doms, lines, opened = rel_open
        _block_tuples(name, doms, lines, parsed.domains)
        raise FormatError("REL %s missing END" % name, line=opened)
    return parsed


def build_instance(parsed: ParsedFile, extra_wnus=None,
                   placeholder_ok=False) -> Instance:
    """Assemble an Instance; every referenced domain needs a WNU (from the
    file or ``extra_wnus``) and every relation must be preserved by it.

    With ``placeholder_ok`` domains lacking a WNU get a projection table so
    operation-free consumers (the brute-force oracle) can still run;
    relation preservation is then skipped for those domains.
    """

    wnus = dict(parsed.wnus)
    if extra_wnus:
        wnus.update(extra_wnus)
    algebras = {}
    placeholders = set()
    arities = {t.arity for t in wnus.values()}
    if len(arities) > 1:
        raise FormatError("all WNU declarations must share one arity")
    arity = next(iter(arities)) if arities else 3
    for dom, size in parsed.domains.items():
        if dom in wnus:
            # the file's tables were checked when parsed, the extra ones not
            build = make_algebra if dom in (extra_wnus or ()) else Algebra
            algebras[dom] = build(range(size), wnus[dom])
        elif placeholder_ok:
            proj = OperationTable(arity, size, tuple(
                args[0] for args in
                itertools.product(range(size), repeat=arity)))
            algebras[dom] = Algebra(tuple(range(size)), proj)
            placeholders.add(dom)
    relations = {}
    for name, (doms, tuples) in parsed.relations.items():
        if not all(d in algebras for d in doms):
            continue
        coords = tuple(algebras[d] for d in doms)
        if not placeholders.isdisjoint(doms):
            relations[name] = Relation(len(doms), coords, tuples)
            continue
        key = (coords, tuples)
        rel = _PARSED_RELATIONS.get(key)
        if rel is None:
            rel = Relation(len(doms), coords, tuples)
            if not is_invariant(rel):
                raise WnuInvalid("relation %s is not preserved by the WNU"
                                 % name, witness=name)
            _PARSED_RELATIONS[key] = rel
        relations[name] = rel
    if not parsed.variables:
        raise FormatError("no variables declared")
    for var, dom in parsed.variables:
        if dom not in algebras:
            raise FormatError("domain %s of %s has no WNU" % (dom, var))
    var_dom = dict(parsed.variables)
    constraints = []
    for relname, scope in parsed.constraints:
        for v, d in zip(scope, parsed.relations[relname][0]):
            if var_dom[v] != d:
                raise FormatError(
                    "variable %s has domain %s but %s expects %s"
                    % (v, var_dom[v], relname, d))
        constraints.append(normalize_scope(relations[relname], scope))
    variables = tuple(v for v, _ in parsed.variables)
    bases = tuple(algebras[d] for _, d in parsed.variables)
    domains = tuple(a.carrier for a in bases)
    return Instance(variables, bases, domains, tuple(constraints))
