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
"""

from __future__ import annotations

import itertools
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
from .instance import Instance, normalize_scope
from .relation import Relation, is_invariant


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


def parse_instance_text(text) -> ParsedFile:
    parsed = ParsedFile()
    rel_open = None  # (name, domain names, tuples, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if rel_open is not None and tokens[0] not in ("END",):
            name, doms, tuples, opened = rel_open
            if tokens[0] in ("DOMAIN", "WNU", "VAR", "REL", "CON"):
                raise FormatError("REL %s missing END" % name, line=opened)
            if len(tokens) != len(doms):
                raise FormatError("tuple arity mismatch in REL %s" % name,
                                  line=lineno)
            try:
                values = tuple(int(t) for t in tokens)
            except ValueError:
                raise FormatError("non-integer tuple entry", line=lineno)
            for v, d in zip(values, doms):
                if not 0 <= v < parsed.domains[d]:
                    raise FormatError("tuple entry %d outside %s" % (v, d),
                                      line=lineno)
            tuples.add(values)
            continue
        key = tokens[0]
        if key == "END":
            if rel_open is None:
                raise FormatError("END without REL", line=lineno)
            name, doms, tuples, _ = rel_open
            parsed.relations[name] = (tuple(doms), frozenset(tuples))
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
                    table = OperationTable(
                        arity, n, tuple(int(e) for e in entries))
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
            if any(v == tokens[1] for v, _ in parsed.variables):
                raise FormatError("duplicate variable %s" % tokens[1],
                                  line=lineno)
            parsed.variables.append((tokens[1], tokens[2]))
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
            rel_open = (name, doms, set(), lineno)
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
            known = {v for v, _ in parsed.variables}
            for v in tokens[2:]:
                if v not in known:
                    raise FormatError("unknown variable %s" % v, line=lineno)
            parsed.constraints.append((tokens[1], tuple(tokens[2:])))
        else:
            raise FormatError("unknown directive %s" % key, line=lineno)
    if rel_open is not None:
        raise FormatError("REL %s missing END" % rel_open[0], line=rel_open[3])
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
    domains = tuple(frozenset(a.elements) for a in bases)
    return Instance(variables, bases, domains, tuple(constraints))


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
        if dom != frozenset(alg.elements):
            name = emit_relation((alg,), frozenset((e,) for e in dom))
            con_lines.append("CON %s %s" % (name, v))
    return "\n".join(lines + rel_lines + con_lines) + "\n"
