"""An independent maximal-typing oracle for ShEx0 schemas (RBE0 rules).

It shares no code with the program under test (nothing here imports
``repro``) and is written the plain way: a greatest fixpoint that starts
from every (node, type) pair and drops a pair whenever the node's outgoing
edges cannot be assigned to the atoms of the type's rule, decided by brute
force over groups of interchangeable edges.

Schemas are read from the rule notation the daemon accepts::

    Bug -> (descr::Literal || related::Bug* || reproducedBy::Employee?)
    Marker -> eps

Only RBE0 rules are supported: ``eps`` or an unordered concatenation
(``||`` or ``,``) of atoms ``label::Type`` with an optional interval
``? * +``, ``[n;m]`` or ``^[n;m]``.  Anything else raises ``ValueError``.

Run ``python3 e2ebench/oracle.py`` for the self-test on hand-worked examples.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

Atom = Tuple[str, str, int, Optional[int]]  # label, type, lower, upper (None = inf)
Schema = Dict[str, List[Atom]]
Edge = Tuple[str, str, str]

_ATOM_RE = re.compile(
    r"^\(?\s*([A-Za-z_][\w\-']*)\s*::\s*([A-Za-z_][\w\-']*)\s*"
    r"(\?|\*|\+|\^?\[\s*\d+\s*(?:;\s*(?:\d+|\*|inf|∞)\s*)?\])?\s*\)?$"
)
_INTERVALS = {None: (1, 1), "?": (0, 1), "*": (0, None), "+": (1, None)}


def _interval(text: Optional[str]) -> Tuple[int, Optional[int]]:
    if text in _INTERVALS:
        return _INTERVALS[text]
    inner = text.lstrip("^").strip("[]").replace(" ", "")
    low, _, high = inner.partition(";")
    if not high:
        return int(low), int(low)
    return int(low), None if high in ("*", "inf", "∞") else int(high)


def parse_schema(text: str) -> Schema:
    """Read a schema in rule notation; one rule per non-blank line."""
    schema: Schema = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, arrow, body = line.replace("→", "->").partition("->")
        if not arrow:
            raise ValueError(f"not a rule: {line!r}")
        body = body.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1].strip()
        atoms: List[Atom] = []
        if body not in ("", "eps", "ε"):
            if "|" in body.replace("||", "") or "&" in body:
                raise ValueError(f"not an RBE0 rule: {line!r}")
            for part in re.split(r"\|\||,", body):
                match = _ATOM_RE.match(part.strip())
                if match is None:
                    raise ValueError(f"not an RBE0 atom: {part!r} in {line!r}")
                atoms.append((match.group(1), match.group(2), *_interval(match.group(3))))
        schema[head.strip()] = atoms
    if not schema:
        raise ValueError("schema has no rules")
    return schema


def _assignable(atoms: List[Atom], groups: Dict[FrozenSet[int], int]) -> bool:
    """Can every group's edges be spread over its candidate atoms so that each
    atom's total lies in its interval?  Brute force over all spreads."""
    counts = [0] * len(atoms)
    order = sorted(groups.items(), key=lambda item: (len(item[0]), sorted(item[0])))

    def fits() -> bool:
        return all(
            low <= counts[i] and (high is None or counts[i] <= high)
            for i, (_, _, low, high) in enumerate(atoms)
        )

    def spread(group: int) -> bool:
        if group == len(order):
            return fits()
        candidates, size = order[group]
        candidates = sorted(candidates)
        return place(group, candidates, 0, size)

    def place(group: int, candidates: List[int], index: int, left: int) -> bool:
        atom = candidates[index]
        high = atoms[atom][3]
        if index == len(candidates) - 1:
            if high is not None and counts[atom] + left > high:
                return False
            counts[atom] += left
            ok = spread(group + 1)
            counts[atom] -= left
            return ok
        for take in range(left + 1):
            if high is not None and counts[atom] + take > high:
                break
            counts[atom] += take
            ok = place(group, candidates, index + 1, left - take)
            counts[atom] -= take
            if ok:
                return True
        return False

    return spread(0)


def maximal_typing(edges: Iterable[Edge], schema: Schema,
                   nodes: Iterable[str] = ()) -> Dict[str, Set[str]]:
    """The maximal typing of the graph given by ``edges`` (plus ``nodes``)."""
    out: Dict[str, List[Tuple[str, str]]] = {}
    preds: Dict[str, Set[str]] = {}
    for node in nodes:
        out.setdefault(node, [])
    for source, label, target in edges:
        out.setdefault(source, []).append((label, target))
        out.setdefault(target, [])
        preds.setdefault(target, set()).add(source)
    typing = {node: set(schema) for node in out}

    def holds(node: str, type_name: str) -> bool:
        atoms = schema[type_name]
        groups: Dict[FrozenSet[int], int] = {}
        for label, target in out[node]:
            candidates = frozenset(
                i for i, (a_label, a_type, _, _) in enumerate(atoms)
                if a_label == label and a_type in typing[target]
            )
            if not candidates:
                return False
            groups[candidates] = groups.get(candidates, 0) + 1
        return _assignable(atoms, groups)

    pending = list(out)
    queued = set(pending)
    while pending:
        node = pending.pop()
        queued.discard(node)
        lost = {t for t in typing[node] if not holds(node, t)}
        if lost:
            typing[node] -= lost
            for pred in preds.get(node, ()):
                if pred not in queued:
                    queued.add(pred)
                    pending.append(pred)
    return typing


def untyped(edges: Iterable[Edge], schema: Schema, nodes: Iterable[str] = ()) -> Set[str]:
    """Nodes that get no type: the graph is valid iff this set is empty."""
    return {node for node, types in maximal_typing(edges, schema, nodes).items()
            if not types}


def satisfies(edges: Iterable[Edge], schema: Schema, nodes: Iterable[str] = ()) -> bool:
    return not untyped(edges, schema, nodes)


# --------------------------------------------------------------------------- #
# Self-test on hand-worked examples
# --------------------------------------------------------------------------- #
_BUG = """
Bug -> (descr::Literal || reportedBy::User || reproducedBy::Employee? || related::Bug*)
Employee -> (name::Literal || email::Literal)
Literal -> isLiteral::Marker
Marker -> eps
User -> (name::Literal || email::Literal?)
"""


def self_test() -> None:
    # Figure 2 of the paper, rewritten in RBE0 form: t1 and t2 differ only in
    # b's interval, and the maximal typing is n0:{t0}, n1:{t1,t2}, n2:{t3}.
    fig2 = parse_schema("t0 -> a::t1\nt1 -> b::t2 || c::t3\n"
                        "t2 -> b::t2? || c::t3\nt3 -> eps")
    typing = maximal_typing([("n0", "a", "n1"), ("n1", "b", "n1"),
                             ("n1", "c", "n2")], fig2)
    assert typing == {"n0": {"t0"}, "n1": {"t1", "t2"}, "n2": {"t3"}}, typing

    bug = parse_schema(_BUG)
    assert bug["Bug"][3] == ("related", "Bug", 0, None)
    lit = [("l1", "isLiteral", "M"), ("l2", "isLiteral", "M"),
           ("l3", "isLiteral", "M"), ("l4", "isLiteral", "M")]
    good = lit + [("b1", "descr", "l1"), ("b1", "reportedBy", "u1"),
                  ("u1", "name", "l2"), ("b1", "related", "b2"),
                  ("b2", "descr", "l3"), ("b2", "reportedBy", "u1"),
                  ("b2", "reproducedBy", "e1"), ("e1", "name", "l4"),
                  ("e1", "email", "l4")]
    typing = maximal_typing(good, bug)
    assert typing["e1"] == {"User", "Employee"} and typing["M"] == {"Marker"}
    assert typing["b1"] == {"Bug"} and not untyped(good, bug)
    # The employee loses its email: it is still a User, but no longer an
    # Employee, so b2 fails reproducedBy and b1 fails through related.
    broken = [e for e in good if e != ("e1", "email", "l4")]
    assert untyped(broken, bug) == {"b1", "b2"}
    # Two reportedBy edges break the [1;1] interval.
    assert untyped(good + [("b1", "reportedBy", "u1x"), ("u1x", "name", "l2")],
                   bug) == {"b1"}

    # Non-deterministic rule: the two related edges must go to different
    # atoms (bounds [1;1] each), which a greedy assignment can miss.
    nondet = parse_schema("A -> r::B || r::C\nB -> x::Z\nC -> eps\nZ -> eps")
    graph = [("a", "r", "b"), ("a", "r", "c"), ("b", "x", "z")]
    assert not untyped(graph, nondet)
    assert untyped([("a", "r", "b"), ("b", "x", "z")], nondet) == {"a"}
    assert untyped([("a", "r", "c1"), ("a", "r", "c2")], nondet) == {"a"}
    assert _interval("[2;5]") == (2, 5) and _interval("^[3]") == (3, 3)
    assert _interval("[1;*]") == (1, None)
    try:
        parse_schema("A -> a::B | b::C")
    except ValueError:
        pass
    else:
        raise AssertionError("disjunction must be rejected")


if __name__ == "__main__":
    self_test()
    print("oracle self-test OK")
