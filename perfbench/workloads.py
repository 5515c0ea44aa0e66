"""Seeded workloads of the solver benchmark.

Every workload is a list of ``Item``s built from a run seed.  Each family
has a fixed window of instance seeds, and the run seed picks the ``SPARE``
of them a run leaves out.  So any two runs share all but ``SPARE``
instances per family, and no run seed brings in an instance whose
behaviour was never seen.
Instances that exhibit a known failure are pinned: they are never left
out, so a seed change can never hide them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from wnucsp.algebra import (
    conjunction_table,
    dual_discriminator_table,
    majority_table,
    minority_table,
    search_special_wnu,
    sum_table,
)
from wnucsp.fileformat import serialize_instance
from wnucsp.harness import GenParams, random_instance


@dataclass(frozen=True)
class Family:
    domain_size: int
    wnu_arity: int
    table: object  # () -> OperationTable


FAMILIES = {
    "minority": Family(2, 3, minority_table),
    "majority": Family(2, 3, majority_table),
    "and3": Family(2, 3, lambda: conjunction_table(3)),
    "dd3": Family(3, 3, dual_discriminator_table),
    "z4": Family(4, 5, lambda: sum_table(4, 5)),
    "z6": Family(6, 7, lambda: sum_table(6, 7)),
    "searched3": Family(3, 3, lambda: search_special_wnu(3, [], 3).table),
    "searched4": Family(4, 3, lambda: search_special_wnu(4, [], 3).table),
}

DESK_FAMILIES = ("minority", "majority", "and3", "dd3", "z4")


DEADLINE_S = 10.0  # per timed solve; see NOTES.md for how it was chosen
SPARE = 1          # instance seeds of each family window a run leaves out


@dataclass(frozen=True)
class Spec:
    """One workload: per-family seed windows at one instance size.

    A window ``(family, count, first)`` holds seeds ``first`` to
    ``first + count + SPARE - 1``, of which a run keeps ``count``; its
    instances have ``size`` variables and ``size`` constraints.  Under
    ``planted="half"`` odd seeds (as counted from ``first``) are planted,
    the acceptance sweep's rule.  ``pinned`` instances
    ``(family, seed, planted, size)`` are in every run.  ``oracle`` is
    "brute_force" or "planted".
    """

    families: tuple
    size: int
    planted: str
    oracle: str
    from_files: bool = False
    pinned: tuple = ()


WORKLOADS = {
    "desk": Spec(
        families=tuple((f, 100, 100_000) for f in DESK_FAMILIES),
        size=6, planted="half", oracle="brute_force"),
    "wide": Spec(
        families=tuple((f, 40, 100_000) for f in DESK_FAMILIES),
        size=10, planted="all", oracle="planted",
        # raises ConfigError("parameter space exceeds the point cap")
        pinned=(("z4", 100_016, True, 24),)),
    "tail": Spec(
        families=(("searched3", 100, 7000), ("searched4", 100, 7000)),
        size=5, planted="half", oracle="brute_force",
        # runs for 490 s
        pinned=(("searched4", 7029, True, 5),)),
    "files": Spec(
        families=(("dd3", 100, 100_000), ("z4", 100, 100_000)),
        size=6, planted="half", oracle="brute_force", from_files=True,
        # a fixed Z6 share, seeds 100008-100013: 100013 misses the deadline
        # behind the others
        pinned=tuple(("z6", s, s % 2 == 1, 6)
                     for s in range(100_008, 100_014))),
}


@dataclass
class Item:
    """One instance of a workload.  ``inst`` is the generated instance;
    file workloads also carry ``text``, which the timed operation parses."""

    family: str
    seed: int
    planted: bool
    size: int
    inst: object
    text: str | None = None

    @property
    def label(self):
        return "%s:%d:n%d" % (self.family, self.seed, self.size)


def center_arity_cap(domain_size):
    """The rule ``wnucsp solve`` applies: the center search must reach the
    largest domain."""

    return max(3, domain_size - 1)


def instance_seeds(spec: Spec, run_seed: int):
    """(family, seed, planted, size) of every instance of one run."""

    rng = random.Random(run_seed)
    out = []
    for family, count, first in spec.families:
        window = [(family, seed,
                   spec.planted == "all" or (seed - first) % 2 == 1,
                   spec.size)
                  for seed in range(first, first + count + SPARE)]
        left_out = rng.sample([w for w in window if w not in spec.pinned],
                              SPARE)
        out += [w for w in window if w not in left_out]
    return out + [p for p in spec.pinned if p not in out]


def build(name: str, run_seed: int, before_each=None):
    """Generate the workload; this is the benchmark's set-up, and includes
    the WNU search and, for file workloads, serialization.  ``before_each``
    is called before each instance is generated."""

    spec = WORKLOADS[name]
    tables = {}
    items = []
    for family, seed, planted, size in instance_seeds(spec, run_seed):
        if before_each is not None:
            before_each()
        fam = FAMILIES[family]
        if family not in tables:
            tables[family] = fam.table()
        params = GenParams(fam.domain_size, fam.wnu_arity, size, size, 3,
                           seed, satisfiable_bias=planted, wnu=tables[family])
        inst, _ = random_instance(params)
        text = serialize_instance(inst) if spec.from_files else None
        items.append(Item(family, seed, planted, size, inst, text))
    return items
