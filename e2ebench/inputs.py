"""Seeded input generation for the three workloads.

Everything a run sends is built here, from ``--seed``, before the clock
starts: requests are encoded to NDJSON bytes once, and each carries the
answer it must get, computed by the independent oracle (``oracle.py``) or
known by construction.  The schema generators of ``repro.workloads`` are
used only to produce schema *texts*; the daemon receives nothing but the
generated requests.

The data are bug-tracker-family documents: disjoint copies of the Figure 1
instance, each copy with its own IRIs and literals.  A copy is described
by *roles* (``bug1`` ... ``emp1`` and the literal roles ``d1`` ... ``ee1``);
since copies share no node except the literal marker sink, a document's
untyped nodes are the union of its copies' untyped nodes, and the oracle
types each distinct copy state once.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Sequence, Tuple

import oracle
from proc import encode

PREFIX = "http://example.org/bugs#"
MARKER = "__literal__"

_LITERAL_ROLES = ("d1", "d2", "d3", "d4", "nu1", "nu2", "eu2", "ne1", "ee1")
BASE: FrozenSet[Tuple[str, str, str]] = frozenset({
    ("bug1", "descr", "d1"), ("bug1", "reportedBy", "user1"),
    ("bug1", "reproducedBy", "emp1"), ("bug1", "related", "bug2"),
    ("bug2", "descr", "d2"), ("bug2", "reportedBy", "user2"),
    ("bug2", "related", "bug1"), ("bug2", "related", "bug3"),
    ("bug3", "descr", "d3"), ("bug3", "reportedBy", "user1"),
    ("bug4", "descr", "d4"), ("bug4", "reportedBy", "user2"),
    ("user1", "name", "nu1"), ("user2", "name", "nu2"),
    ("user2", "email", "eu2"), ("emp1", "name", "ne1"), ("emp1", "email", "ee1"),
})

#: Document mutations: (removed role triples, added role triples).  The
#: first group leaves the copy valid under the Figure 1 schema, the second
#: invalidates it (the oracle decides which nodes lose their types).
VALID_VARIANTS = {
    "intact": ((), ()),
    "extra-related": ((), (("bug3", "related", "bug4"),)),
    "reproduced": ((), (("bug4", "reproducedBy", "emp1"),)),
}
INVALID_VARIANTS = {
    "no-descr": ((("bug1", "descr", "d1"),), ()),
    "no-name": ((("user1", "name", "nu1"),), ()),
    "employee-no-email": ((("emp1", "email", "ee1"),), ()),
    "two-reporters": ((), (("bug4", "reportedBy", "user1"),)),
}
VARIANTS = {**VALID_VARIANTS, **INVALID_VARIANTS}

def variant_state(variant: str) -> FrozenSet[Tuple[str, str, str]]:
    removed, added = VARIANTS[variant]
    return (BASE - set(removed)) | set(added)


def is_literal(role: str) -> bool:
    """Literal roles: the copy's own, and ``xd<n>`` of bugs grown by deltas."""
    return role in _LITERAL_ROLES or role.startswith("xd")


class Namer:
    """Concrete node names of one copy (converted-graph form)."""

    def __init__(self, tag: str):
        self.tag = tag

    def iri_local(self, role: str) -> str:
        return f"{self.tag}_{role}"

    def lexical(self, role: str) -> str:
        return f"L{self.tag}{role}"

    def node(self, role: str) -> str:
        if is_literal(role):
            return f"literal:{self.lexical(role)}||"
        return PREFIX + self.iri_local(role)

    def turtle(self, triple: Tuple[str, str, str]) -> str:
        source, label, target = triple
        obj = f'"{self.lexical(target)}"' if is_literal(target) else f"ex:{self.iri_local(target)}"
        return f"ex:{self.iri_local(source)} ex:{label} {obj} .\n"


def turtle_document(copies: Sequence[Tuple[Namer, FrozenSet]]) -> str:
    parts = ["@prefix ex: <http://example.org/bugs#> .\n"]
    for namer, state in copies:
        parts.extend(namer.turtle(triple) for triple in sorted(state))
    return "".join(parts)


class CopyOracle:
    """Untyped roles of one copy state under one schema, memoised."""

    def __init__(self, schemas: Dict[str, str]):
        self.schemas = {key: oracle.parse_schema(text) for key, text in schemas.items()}
        self._memo: Dict[Tuple[str, FrozenSet, bool], FrozenSet[str]] = {}

    def untyped_roles(self, schema_key: str, state: FrozenSet, all_literals: bool) -> FrozenSet[str]:
        """``all_literals`` keeps every literal's marker edge, as a store
        does after a delta removed the literal's only incoming edge."""
        key = (schema_key, state, all_literals)
        found = self._memo.get(key)
        if found is None:
            literals = {t for _, _, t in state if is_literal(t)}
            if all_literals:
                literals |= set(_LITERAL_ROLES)
            edges = set(state) | {(lit, "isLiteral", MARKER) for lit in literals}
            found = frozenset(oracle.untyped(edges, self.schemas[schema_key]))
            self._memo[key] = found
        return found


def expected_untyped(copy_oracle: CopyOracle, schema_key: str,
                     copies: Sequence[Tuple[Namer, FrozenSet]], all_literals: bool) -> List[str]:
    out = []
    for namer, state in copies:
        for role in copy_oracle.untyped_roles(schema_key, state, all_literals):
            out.append(repr(namer.node(role)))
    return sorted(out)


@dataclass
class Op:
    """One request of a round: its op type, encoded line, and expectation."""

    kind: str
    line: bytes
    expect: Dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Schemas
# --------------------------------------------------------------------------- #
def bug_schemas(seed: int) -> Dict[str, str]:
    """Figure 1, its Section 1 refactoring, and two grown relaxations."""
    from repro.workloads import bug_tracker_refactored_schema, bug_tracker_schema, grow_schema_chain

    main = bug_tracker_schema()
    chain = grow_schema_chain(main, 4, rng=random.Random(seed))
    return {"main": str(main), "refactored": str(bug_tracker_refactored_schema()),
            "relax2": str(chain[2]), "relax4": str(chain[4])}


def rename_types(text: str, suffix: str) -> str:
    """Consistently rename every type of a schema text (labels untouched)."""
    return re.sub(r"(^|::)\s*([A-Za-z_][\w\-']*)", lambda m: f"{m.group(1)}{m.group(2)}{suffix}",
                  text, flags=re.M)


# --------------------------------------------------------------------------- #
# validate-stream
# --------------------------------------------------------------------------- #
#: Every round holds the same multiset of document sizes (copies), schemas,
#: compressed and broken documents, so its cost hardly depends on the seed;
#: the seed picks the order, the pairing and the mutations.
ROUND_SIZES = (1, 1, 1, 1, 1, 2, 2, 2, 4, 4, 4, 8, 8, 8, 16, 16, 32, 64)
ROUND_SCHEMAS = ("main",) * 7 + ("refactored",) * 5 + ("relax2",) * 3 + ("relax4",) * 3
ROUND_COMPRESSED = 3
ROUND_BROKEN = 4
#: Sizes of the six repeats: the first three from the previous round (a
#: parse-memo hit), the last three from >= 16 rounds back (a parse-memo miss
#: once 270 newer documents passed through its 256 entries; still a
#: result-cache hit).
REPEAT_SIZES = (1, 4, 16, 2, 8, 32)


def validate_stream(seed: int, schemas: Dict[str, str]) -> Iterator[List[Op]]:
    """The rounds of ``validate-stream``, endlessly."""
    rng = random.Random(seed * 7919 + 1)
    copy_oracle = CopyOracle(schemas)
    out: List[List[Op]] = []
    for r in itertools.count():
        ops: List[Op] = []
        count = len(ROUND_SIZES)
        schema_keys = rng.sample(ROUND_SCHEMAS, count)
        compressed = set(rng.sample(range(count), ROUND_COMPRESSED))
        broken = set(rng.sample(range(count), ROUND_BROKEN))
        for i, size in enumerate(ROUND_SIZES):
            bad_copy = rng.randrange(size) if i in broken else -1
            copies = []
            for k in range(size):
                if k == bad_copy:
                    variant = rng.choice(sorted(INVALID_VARIANTS))
                else:
                    variant = "intact" if rng.random() < 0.8 else rng.choice(sorted(VALID_VARIANTS))
                copies.append((Namer(f"s{seed}r{r}d{i}c{k}"), variant_state(variant)))
            untyped = expected_untyped(copy_oracle, schema_keys[i], copies, all_literals=False)
            request = {"schema": schema_keys[i], "data": {"text": turtle_document(copies)},
                       "compressed": i in compressed}
            ops.append(Op("validate", encode({"op": "validate", **request}),
                          {"verdict": "invalid" if untyped else "valid", "untyped": untyped,
                           "size": size}))
        for j, size in enumerate(REPEAT_SIZES):
            if r == 0:
                source = ops
            elif j < 3:
                source = out[r - 1]
            else:
                source = out[rng.randrange(max(r - 15, 1))]
            fresh = [op for op in source if not op.expect.get("repeat")
                     and op.expect["size"] == size]
            pick = fresh[rng.randrange(len(fresh))]
            ops.append(Op("validate", pick.line, {**pick.expect, "repeat": True}))
        rng.shuffle(ops)
        out.append(ops)
        yield ops


# --------------------------------------------------------------------------- #
# live-graph
# --------------------------------------------------------------------------- #
STORES = {"s512": 512, "s64a": 64, "s64b": 64}
HOT_COPIES = 3
#: The bug whose description an episode removes and restores, by episode
#: parity: breaking bug1 untypes bug1 and bug2, breaking bug3 also bug1.
BREAK = (("bug1", "descr", "d1"), ("bug3", "descr", "d3"))
#: The ``related`` edges between a copy's bugs that Figure 1 lacks.  Edits
#: toggle them in Gray-code order, so a copy's content does not repeat for
#: 2**9 edits and no revalidate after an edit is a content-cache hit.
RELATES = tuple(("bug%d" % i, "related", "bug%d" % j) for i in range(1, 5)
                for j in range(1, 5) if i != j and (i, j) not in ((1, 2), (2, 1), (2, 3)))


class Mirror:
    """The expected content of every store: versions and hot-copy states.

    Deltas only touch the seeded hot copies: they grow a copy by a fresh bug,
    toggle an edge between its bugs, or remove a bug's description (untyping
    it and the bugs that relate to it) and restore it.
    """

    def __init__(self, seed: int, copy_oracle: CopyOracle):
        rng = random.Random(seed * 31 + 5)
        self.copy_oracle = copy_oracle
        self.version = {name: 0 for name in STORES}
        self.hot = {name: rng.sample(range(size), HOT_COPIES) for name, size in STORES.items()}
        self.state = {(name, k): BASE for name in STORES for k in self.hot[name]}
        self.grown = 0
        self.edits = {key: 0 for key in self.state}

    @staticmethod
    def namer(store: str, copy_index: int) -> Namer:
        return Namer(f"{store}c{copy_index}")

    def document(self, store: str) -> str:
        return turtle_document([(self.namer(store, k), BASE) for k in range(STORES[store])])

    def _apply(self, store: str, copy_index: int, add=(), remove=()) -> Dict[str, Any]:
        namer = self.namer(store, copy_index)

        def node(role: str) -> str:
            return MARKER if role == MARKER else namer.node(role)

        state = self.state[(store, copy_index)]
        self.state[(store, copy_index)] = (state - set(remove)) | set(add)
        self.version[store] += 1
        return {"add": [[node(s), label, node(t)] for s, label, t in add],
                "remove": [[node(s), label, node(t)] for s, label, t in remove]}

    def grow(self, store: str, copy_index: int) -> Dict[str, Any]:
        self.grown += 1
        bug, lit = f"xbug{self.grown}", f"xd{self.grown}"
        return self._apply(store, copy_index, add=[
            (bug, "descr", lit), (lit, "isLiteral", MARKER),
            (bug, "reportedBy", "user2"), ("bug4", "related", bug)])

    def relate(self, store: str, copy_index: int) -> Dict[str, Any]:
        """Toggle the copy's next ``related`` edge in Gray-code order."""
        self.edits[(store, copy_index)] += 1
        count = self.edits[(store, copy_index)]
        lowest_bit = (count & -count).bit_length() - 1
        return self.toggle(store, copy_index, RELATES[lowest_bit % len(RELATES)])

    def toggle(self, store: str, copy_index: int, triple) -> Dict[str, Any]:
        present = triple in self.state[(store, copy_index)]
        return self._apply(store, copy_index, remove=[triple] if present else [],
                           add=[] if present else [triple])

    def expected(self, store: str, schema_key: str = "main") -> Dict[str, Any]:
        copies = [(self.namer(store, k), self.state[(store, k)]) for k in self.hot[store]]
        untyped = expected_untyped(self.copy_oracle, schema_key, copies, all_literals=True)
        return {"graph": store, "version": self.version[store],
                "verdict": "invalid" if untyped else "valid", "untyped": untyped}

    def snapshot(self):
        return dict(self.version), dict(self.state), self.grown, dict(self.edits)

    def restore(self, snap) -> None:
        self.version, self.state, self.grown = dict(snap[0]), dict(snap[1]), snap[2]
        self.edits = dict(snap[3])


def _update(mirror: Mirror, store: str, delta: Dict[str, Any]) -> Op:
    return Op("update", encode({"op": "update_graph", "name": store, "delta": delta,
                                "expect_version": mirror.version[store] - 1}),
              {"graph": store, "version": mirror.version[store]})


def _revalidate(mirror: Mirror, store: str, compressed: bool) -> Op:
    return Op("revalidate", encode({"op": "revalidate", "name": store, "schema": "main",
                                    "compressed": compressed}), mirror.expected(store))


def _revalidate_all(mirror: Mirror) -> Op:
    return Op("revalidate-all", encode({"op": "revalidate", "all": True, "schema": "main"}),
              {"results": [mirror.expected(s) for s in sorted(STORES)]})


#: Stores whose first episode of a round adds a fresh bug node.  Adding a
#: node makes the daemon retype the whole store (``kinds``/``full``), which
#: on the x512 store takes ~200 ms with a run-to-run spread that would swamp
#: every other revalidate; the x64 stores keep that path in the mix.
GROWING = ("s64a", "s64b")


def live_round(mirror: Mirror, r: int) -> List[Op]:
    """Two episodes on every store, each followed by ``revalidate all``, then
    a checkpoint: 39 requests, the same mix in every round and seed.

    Each episode is: edit, revalidate; break a description, revalidate
    compressed; restore it, revalidate (the content after the edit again).
    An edit toggles a ``related`` edge between existing bugs, except in the
    first episode on a ``GROWING`` store, where it adds a fresh bug node.
    """
    ops: List[Op] = []
    for episode in (2 * r, 2 * r + 1):
        for store in STORES:
            copy_index = mirror.hot[store][episode % HOT_COPIES]
            if episode % 2 == 0 and store in GROWING:
                ops.append(_update(mirror, store, mirror.grow(store, copy_index)))
            else:
                ops.append(_update(mirror, store, mirror.relate(store, copy_index)))
            ops.append(_revalidate(mirror, store, False))
            triple = BREAK[episode % 2]
            ops.append(_update(mirror, store, mirror.toggle(store, copy_index, triple)))
            ops.append(_revalidate(mirror, store, True))
            ops.append(_update(mirror, store, mirror.toggle(store, copy_index, triple)))
            ops.append(_revalidate(mirror, store, False))
        ops.append(_revalidate_all(mirror))
    ops.append(Op("checkpoint", encode({"op": "checkpoint"}), {"graphs": len(STORES)}))
    return ops


def restart_tail(mirror: Mirror, attempt: int) -> List[Op]:
    """Deltas written after the last checkpoint and before a SIGKILL: the
    WAL tail that recovery must replay.  The broken description stays
    broken, so the recovered typing has untyped nodes to get right."""
    stores = sorted(STORES)
    copy_index = mirror.hot["s512"][attempt % HOT_COPIES]
    tail = [_update(mirror, "s512", mirror.grow("s512", copy_index)),
            _update(mirror, "s512", mirror.toggle("s512", copy_index, BREAK[attempt % 2]))]
    other = stores[attempt % len(stores)]
    tail.append(_update(mirror, other, mirror.grow(other, mirror.hot[other][0])))
    return tail


def live_graph(mirror: Mirror, snaps: List) -> Iterator[List[Op]]:
    """The rounds of ``live-graph``, endlessly; ``snaps[r]`` receives the
    mirror's state after ``r`` rounds."""
    snaps.append(mirror.snapshot())
    for r in itertools.count():
        ops = live_round(mirror, r)
        snaps.append(mirror.snapshot())
        yield ops


# --------------------------------------------------------------------------- #
# schema-evolution
# --------------------------------------------------------------------------- #
#: Search budgets, carried in each request.  Random ShEx0 pairs get small
#: instances: at ``max_nodes=20`` about one pair in 250 spends the whole
#: enumeration budget (~3 s), enough to swing a run's throughput by a third.
DET_BUDGET = {"max_nodes": 20, "samples": 10}
SHEX0_BUDGET = {"max_nodes": 5, "samples": 10}
REFACTOR_BUDGET = {"max_nodes": 8, "samples": 3}
#: With 6 random ShEx0 pairs a round holds 8 ``contains-shex0`` requests,
#: so the round's p90 is its slowest: the budgeted Figure 1 ⊆ refactored
#: search, the same work in every round, not the tail of the random pairs.
DET_RANDOM_PAIRS = 6
SHEX0_RANDOM_PAIRS = 6


def lone_node_separates(left: str, right: str) -> bool:
    """Is the one-node, edge-free graph in L(left) \\ L(right)?

    Such pairs are left out: the daemon renders a counter-example as its
    edge list, so a counter-example made of one isolated node arrives as
    ``[]`` and cannot be checked (an empty graph satisfies every schema).
    """
    return (oracle.satisfies([], oracle.parse_schema(left), nodes=["n"])
            and not oracle.satisfies([], oracle.parse_schema(right), nodes=["n"]))


def _contains(kind: str, left: str, right: str, budget: Dict[str, int],
              expect: Dict[str, Any]) -> Op:
    message = {"op": "contains", "left": {"text": left}, "right": {"text": right}, **budget}
    return Op(kind, encode(message), {"left": left, "right": right, **expect})


def schema_evolution(seed: int) -> Iterator[List[Op]]:
    """The rounds of ``schema-evolution``, endlessly."""
    from repro.schema.classes import SchemaClass, schema_class
    from repro.schema.parser import parse_schema
    from repro.workloads import (bug_tracker_refactored_schema, bug_tracker_schema,
                                 grow_schema_chain, random_detshex0_minus_schema)
    from repro.workloads.generators import random_shex_schema

    main_text = str(bug_tracker_schema())
    refactored_text = str(bug_tracker_refactored_schema())
    det = SchemaClass.DETSHEX0_MINUS
    for r in itertools.count():
        rng = random.Random(seed * 1000003 + r)
        suffix = f"_s{seed}r{r}"
        ops: List[Op] = []
        chain = [rename_types(str(s), suffix)
                 for s in grow_schema_chain(parse_schema(main_text), 3, rng=rng)]
        for i in range(3):
            ops.append(_contains("contains-det", chain[i], chain[i + 1], DET_BUDGET,
                                 {"class": "det", "verdicts": ("contained",)}))
            ops.append(_contains("contains-det", chain[i + 1], chain[i], DET_BUDGET,
                                 {"class": "det", "verdicts": ("contained", "not-contained")}))
        for i in range(DET_RANDOM_PAIRS):
            left = random_detshex0_minus_schema(5, rng=rng)
            right = random_detshex0_minus_schema(5, rng=rng)
            ops.append(_contains("contains-det", rename_types(str(left), suffix + f"a{i}"),
                                 rename_types(str(right), suffix + f"a{i}"), DET_BUDGET,
                                 {"class": "det", "verdicts": ("contained", "not-contained")}))
        made = 0
        while made < SHEX0_RANDOM_PAIRS:
            left = random_shex_schema(4, max_disjuncts=1, rng=rng)
            right = random_shex_schema(4, max_disjuncts=1, rng=rng)
            if schema_class(left) is det and schema_class(right) is det:
                continue
            left_text = rename_types(str(left), suffix + f"b{made}")
            right_text = rename_types(str(right), suffix + f"b{made}")
            if lone_node_separates(left_text, right_text):
                continue
            ops.append(_contains("contains-shex0", left_text, right_text, SHEX0_BUDGET,
                                 {"class": "shex0",
                                  "verdicts": ("contained", "not-contained", "unknown")}))
            made += 1
        main_r, refactored_r = rename_types(main_text, suffix), rename_types(refactored_text, suffix)
        ops.append(_contains("contains-shex0", refactored_r, main_r, SHEX0_BUDGET,
                             {"class": "shex0", "verdicts": ("contained",)}))
        ops.append(_contains("contains-shex0", main_r, refactored_r, REFACTOR_BUDGET,
                             {"class": "shex0", "verdicts": ("contained", "unknown")}))
        rng.shuffle(ops)
        yield ops


def counterexample_edges(lines: Sequence[str]) -> List[Tuple[str, str, str]]:
    """Parse the daemon's ``'src' -label-> 'dst'`` counter-example lines."""
    import ast

    edges = []
    for line in lines:
        match = re.match(r"^(.*) -(\S+)-> (.*)$", line)
        if match is None:
            raise ValueError(f"unreadable counter-example edge {line!r}")
        source, label, target = match.groups()
        edges.append((repr(ast.literal_eval(source)), label, repr(ast.literal_eval(target))))
    return edges

