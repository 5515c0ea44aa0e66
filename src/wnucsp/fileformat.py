"""Line-oriented instance files.

Grammar (whitespace separated, ``#`` starts a comment):

    DOMAIN <name> <n>                      elements are 0..n-1
    WNU <domain> <m> (SUM | n^m entries)   row-major, lexicographic arguments
    VAR <name> <domain>
    REL <name> <arity> <domain>...         followed by tuple lines, then END
    CON <relname> <var>...

Scopes with repeated variables are normalized at build time.  A declared
WNU is verified (identities plus preservation of every relation touching
its domain) before an instance is produced.  A relation that an earlier
build already validated, on the same algebras with the same tuples, is
reused rather than built and checked again.

A REL block is read as one unit up to the next line reading exactly
``END``: its nonblank lines are split, their arity checked at once, and
each token converted by its column's map from the tokens "0" .. "n-1" to
the domain's values, a map built at the DOMAIN line.  Any other token, or
a block that meets a directive or a spaced END first, is read again one
line at a time with ``int`` entries, so every ``FormatError`` names the
first bad line; the blocks after it are read that way too.  The parser is
the boundary: ``build_instance`` makes relations, constraints and the
instance without re-running the checks the parser has done.  Variable
names are interned, and every variable of one algebra gets the algebra's
own carrier frozenset as its domain, so parses of one text share both.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from dataclasses import dataclass, field

from .algebra import (
    Algebra,
    OperationTable,
    make_algebra,
    sum_table,
    verify_special_wnu,
)
from .errors import FormatError, WnuInvalid
from .instance import Constraint, Instance, normalize_scope
from .relation import Relation, _derived as _derived_relation, is_invariant


# Relations built by ``build_instance`` that passed validation, one per
# (coordinate algebras, tuple set) while some instance holds it.  Algebras
# are interned, so a later parse of the same relation reuses it and skips
# the invariance check.
_PARSED_RELATIONS = weakref.WeakValueDictionary()


@dataclass
class ParsedFile:
    domains: dict = field(default_factory=dict)   # name -> size
    wnus: dict = field(default_factory=dict)      # domain name -> table
    variables: list = field(default_factory=list)  # (name, domain name)
    relations: dict = field(default_factory=dict)  # name -> (domains, tuples)
    constraints: list = field(default_factory=list)  # (rel name, var names)


_DIRECTIVES = frozenset(("DOMAIN", "WNU", "VAR", "REL", "CON"))

# A DOMAIN line maps the tokens "0", "1", ... of at most this many of its
# values to ints, so a huge declared size costs no more than its line; a
# tuple entry past the map takes the line-by-line read.
_MAPPED = 256


def _block_rows(lines, start, maps):
    """The tuple set of the REL block whose tuple lines begin at index
    ``start``, and the index after its END, read as one unit: ``maps``
    holds each column's token map.  None unless the block is closed by a
    line reading exactly ``END`` and every nonblank line in between has
    one mapped token per column."""

    try:
        end = lines.index("END", start)
    except ValueError:
        return None
    rows = [tokens for tokens in map(str.split, lines[start:end]) if tokens]
    if not set(map(len, rows)) <= {len(maps)}:
        return None
    try:
        # through a set in line order, as the line-by-line read builds it,
        # so the frozenset keeps the same iteration order
        tuples = {tuple(map(dict.__getitem__, maps, row)) for row in rows}
    except KeyError:
        return None
    return frozenset(tuples), end + 1


def _checked_block(name, doms, lines, start, sizes):
    """``_block_rows`` one line at a time, with ``int`` entries: the first
    fault raises with its line number, and a block that meets a directive
    or the end of the text before its END raises after its lines."""

    r = len(doms)
    tuples = set()
    for i in range(start, len(lines)):
        tokens = lines[i].split()
        if not tokens:
            continue
        if tokens[0] == "END":
            if len(tokens) != 1:
                raise FormatError("END takes no further tokens", line=i + 1)
            return frozenset(tuples), i + 1
        if tokens[0] in _DIRECTIVES:
            break
        if len(tokens) != r:
            raise FormatError("tuple arity mismatch in REL %s" % name,
                              line=i + 1)
        try:
            values = tuple(map(int, tokens))
        except ValueError:
            raise FormatError("non-integer tuple entry", line=i + 1)
        for v, d in zip(values, doms):
            if not 0 <= v < sizes[d]:
                raise FormatError("tuple entry %d outside %s" % (v, d),
                                  line=i + 1)
        tuples.add(values)
    # the REL line is the one before index start, so its number is start
    raise FormatError("REL %s missing END" % name, line=start)


def parse_instance_text(text) -> ParsedFile:
    parsed = ParsedFile()
    declared = set()  # variable names
    maps = {}  # domain name -> {"0": 0, "1": 1, ...}
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    # after one block needs the line-by-line read, the rest do too: a text
    # whose END lines carry spaces or comments then costs one search for
    # an exact END, not one per block
    blocks_fast = True
    i = 0
    while i < len(lines):
        tokens = lines[i].split()
        i += 1
        if not tokens:
            continue
        lineno = i
        key = tokens[0]
        if key == "END":
            raise FormatError("END without REL", line=lineno)
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
            maps[name] = {str(v): v for v in range(min(size, _MAPPED))}
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
            block = blocks_fast and _block_rows(lines, i,
                                                [maps[d] for d in doms])
            if not block:
                blocks_fast = False
                block = _checked_block(name, doms, lines, i, parsed.domains)
            parsed.relations[name] = (tuple(doms), block[0])
            i = block[1]
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
    return parsed


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields``, without its ``__post_init__`` checks.
    Set one at a time in the order its constructor sets them, so the
    instance dict stays as compact as the constructor leaves it (updating
    ``__dict__`` in one call gives each object a dict of its own keys)."""

    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def build_instance(parsed: ParsedFile, extra_wnus=None,
                   placeholder_ok=False) -> Instance:
    """Assemble an Instance; every referenced domain needs a WNU (from the
    file or ``extra_wnus``) and every relation must be preserved by it.

    With ``placeholder_ok`` domains lacking a WNU get a projection table so
    operation-free consumers (the brute-force oracle) can still run;
    relation preservation is then skipped for those domains.

    What ``parse_instance_text`` checked is not checked again: relations,
    constraints and the instance are built without the checks of their
    constructors, each of which names the parser check that stands for it.
    Placeholder relations and ``extra_wnus`` tables keep their checks.
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
            # Relation's checks: one coordinate per REL domain (the REL
            # line's count), and each tuple of the REL arity with its
            # entries in range (the tuple lines); each algebra's carrier
            # is range(size)
            rel = _derived_relation(coords, tuples)
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
        rel = relations[relname]
        if len(set(scope)) < len(scope):
            constraints.append(normalize_scope(rel, scope))
        else:
            # Constraint's checks: the scope is a tuple as long as the
            # relation's arity (the CON line's count) and not empty (CON
            # needs a variable)
            constraints.append(_unchecked(Constraint, relation=rel,
                                          scope=scope))
    variables = tuple(v for v, _ in parsed.variables)
    bases = tuple(algebras[d] for _, d in parsed.variables)
    # Instance's checks: the variables are distinct (VAR's duplicate
    # check); each domain is its algebra's carrier, so nonempty (DOMAIN's
    # positive size) and a subuniverse; scopes are distinct (normalized
    # above) and declared (CON's variable check), and each relation
    # coordinate is its variable's algebra (the domain check above)
    return _unchecked(Instance, variables=variables, base_algebras=bases,
                      current_domains=tuple(a.carrier for a in bases),
                      constraints=tuple(constraints),
                      _index={v: i for i, v in enumerate(variables)})


def parse_instance(text) -> Instance:
    return build_instance(parse_instance_text(text))


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; reduced domains become unary
    constraints so the file replays equivalently."""

    lines = []
    domain_names = {}
    for alg in inst.base_algebras:
        if alg not in domain_names:
            domain_names[alg] = "D%d" % len(domain_names)
    for alg, name in domain_names.items():
        lines.append("DOMAIN %s %d" % (name, alg.size))
        table = alg.wnu
        if table == sum_table(alg.size, table.arity):
            lines.append("WNU %s %d SUM" % (name, table.arity))
        else:
            lines.append("WNU %s %d %s" % (
                name, table.arity, " ".join(map(str, table.entries))))
    index = {v: i for i, v in enumerate(inst.variables)}
    for v in inst.variables:
        lines.append("VAR %s %s" % (v, domain_names[inst.base_algebras[index[v]]]))
    rel_names = {}
    rel_lines = []
    con_lines = []

    def emit_relation(bases, id_tuples):
        """Relation tuples carry element ids; files speak base positions."""
        mapped = frozenset(
            tuple(alg.positions[e] for alg, e in zip(bases, t))
            for t in id_tuples
        )
        key = (bases, mapped)
        if key in rel_names:
            return rel_names[key]
        name = "R%d" % len(rel_names)
        rel_names[key] = name
        rel_lines.append("REL %s %d %s" % (
            name, len(bases), " ".join(domain_names[a] for a in bases)))
        for t in sorted(mapped):
            rel_lines.append(" ".join(map(str, t)))
        rel_lines.append("END")
        return name

    for c in inst.constraints:
        bases = tuple(inst.base_algebras[index[v]] for v in c.scope)
        name = emit_relation(bases, c.relation.tuples)
        con_lines.append("CON %s %s" % (name, " ".join(c.scope)))
    for i, v in enumerate(inst.variables):
        dom = inst.current_domains[i]
        alg = inst.base_algebras[i]
        if dom != alg.carrier:
            name = emit_relation((alg,), frozenset((e,) for e in dom))
            con_lines.append("CON %s %s" % (name, v))
    return "\n".join(lines + rel_lines + con_lines) + "\n"
