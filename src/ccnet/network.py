"""Typed directed multigraphs and the combinatorics admissibility depends on.

A network is a finite set of typed nodes joined by typed arrows; multiple
arrows and self-loops are permitted.  Everything downstream (colourings,
admissible vector fields, quotients) is driven by the *input set* of each
node: the multiset of arrows entering it, read in a fixed "standard order".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


class NetworkError(ValueError):
    """Structural problem: duplicate ids, dangling endpoints, bad queries."""


@dataclass(frozen=True, order=True)
class Node:
    id: int
    node_type: str


@dataclass(frozen=True, order=True)
class Arrow:
    id: int
    arrow_type: str
    head: int
    tail: int


class Network:
    """Immutable typed multi-digraph.

    Arrows of each input set are kept in standard order, sorted by
    (arrow_type, tail id, arrow id).  With inputs read in this order the
    transitional identifications between input-equivalent nodes are the
    identity, so component functions can be shared positionally.
    """

    def __init__(self, nodes: Iterable[Node], arrows: Iterable[Arrow]):
        nodes = tuple(sorted(nodes))
        arrows = tuple(sorted(arrows, key=lambda a: a.id))
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate node ids")
        aids = [a.id for a in arrows]
        if len(set(aids)) != len(aids):
            raise NetworkError("duplicate arrow ids")
        known = set(ids)
        for a in arrows:
            if a.head not in known or a.tail not in known:
                raise NetworkError(f"arrow {a.id} references unknown node "
                                   f"({a.head} -> {a.tail} heads/tails must exist)")
        self.nodes = nodes
        self.arrows = arrows
        self._node_by_id = {n.id: n for n in nodes}
        inputs: dict[int, list[Arrow]] = {n.id: [] for n in nodes}
        for a in arrows:
            inputs[a.head].append(a)
        self.input_sets = {
            c: tuple(sorted(arrs, key=lambda a: (a.arrow_type, a.tail, a.id)))
            for c, arrs in inputs.items()
        }

    # -- basic queries -------------------------------------------------

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, c: int) -> Node:
        try:
            return self._node_by_id[c]
        except KeyError:
            raise NetworkError(f"unknown node id {c}") from None

    def node_type(self, c: int) -> str:
        return self.node(c).node_type

    def input_set(self, c: int) -> tuple[Arrow, ...]:
        self.node(c)
        return self.input_sets[c]

    def input_tails(self, c: int) -> tuple[int, ...]:
        """Tail nodes of c's inputs, in standard order."""
        return tuple(a.tail for a in self.input_set(c))

    def arrow_types(self) -> tuple[str, ...]:
        return tuple(sorted({a.arrow_type for a in self.arrows}))

    def node_types(self) -> tuple[str, ...]:
        return tuple(sorted({n.node_type for n in self.nodes}))

    def __repr__(self):
        return f"Network({len(self.nodes)} nodes, {len(self.arrows)} arrows)"

    def __eq__(self, other):
        return (isinstance(other, Network)
                and self.nodes == other.nodes and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.nodes, self.arrows))

    # -- input equivalence ---------------------------------------------

    def input_signature(self, c: int) -> tuple:
        """(node type, multiset of input arrow types); equal signatures
        mean an arrow-type preserving bijection between the input sets
        exists, i.e. the nodes are input equivalent."""
        return (self.node_type(c),
                tuple(sorted(a.arrow_type for a in self.input_set(c))))

    @cached_property
    def input_partition(self) -> tuple[tuple[int, ...], ...]:
        """Input-equivalence classes, each sorted, ordered by least member."""
        groups: dict[tuple, list[int]] = {}
        for c in self.node_ids:
            groups.setdefault(self.input_signature(c), []).append(c)
        return tuple(sorted((tuple(sorted(g)) for g in groups.values()),
                            key=lambda g: g[0]))

    def input_class_of(self, c: int) -> tuple[int, ...]:
        for cls in self.input_partition:
            if c in cls:
                return cls
        raise NetworkError(f"unknown node id {c}")

    def input_equivalent(self, c: int, d: int) -> bool:
        return self.input_signature(c) == self.input_signature(d)

    # -- state equivalence ---------------------------------------------

    @cached_property
    def state_partition(self) -> tuple[tuple[int, ...], ...]:
        """Classes of nodes whose state spaces are forced equal.

        Generated by: input-equivalent nodes share a space, and so do the
        tails of corresponding arrows under every input isomorphism.  With
        vertex groups being full symmetric products per arrow type, the
        second rule collapses to: within one input class, all tails of
        same-typed inputs share a space.
        """
        parent = {c: c for c in self.node_ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for cls in self.input_partition:
            for c in cls[1:]:
                union(cls[0], c)
            tails_by_type: dict[str, list[int]] = {}
            for c in cls:
                for a in self.input_set(c):
                    tails_by_type.setdefault(a.arrow_type, []).append(a.tail)
            for tails in tails_by_type.values():
                for t in tails[1:]:
                    union(tails[0], t)

        groups: dict[int, list[int]] = {}
        for c in self.node_ids:
            groups.setdefault(find(c), []).append(c)
        return tuple(sorted((tuple(sorted(g)) for g in groups.values()),
                            key=lambda g: g[0]))

    def state_class_of(self, c: int) -> tuple[int, ...]:
        for cls in self.state_partition:
            if c in cls:
                return cls
        raise NetworkError(f"unknown node id {c}")

    def state_equivalent(self, c: int, d: int) -> bool:
        return self.state_class_of(c) == self.state_class_of(d)


# -- vertex groups ------------------------------------------------------

@dataclass(frozen=True)
class VertexGroup:
    """Self input-isomorphisms of a node: a direct product of symmetric
    groups, one per arrow-type block of the standard-ordered input set."""

    node: int
    blocks: tuple[tuple[str, tuple[int, ...]], ...]  # (arrow_type, positions)
    order: int

    def elements(self, cap: int = 720) -> list[tuple[int, ...]]:
        """All input-tuple permutations, as position tuples (perm[i] is the
        position read into slot i).  Raises if the group order exceeds cap."""
        if self.order > cap:
            raise NetworkError(
                f"vertex group of node {self.node} has order {self.order} > cap {cap}")
        return list(self.iter_elements())

    def iter_elements(self) -> Iterator[tuple[int, ...]]:
        """The permutations of elements(), in the same order, generated one
        at a time (the first block varies slowest)."""
        cand = [-1] * sum(len(pos) for _, pos in self.blocks)

        def extend(k):
            if k == len(self.blocks):
                yield tuple(cand)
                return
            pos = self.blocks[k][1]
            for image in itertools.permutations(pos):
                for slot, src in zip(pos, image):
                    cand[slot] = src
                yield from extend(k + 1)

        return extend(0)


def vertex_group(net: Network, c: int) -> VertexGroup:
    """Arrow-type blocks of I(c) in standard order; order is the product of
    block-size factorials."""
    arrows = net.input_set(c)
    blocks: list[tuple[str, tuple[int, ...]]] = []
    for atype, grp in itertools.groupby(enumerate(arrows), key=lambda t: t[1].arrow_type):
        positions = tuple(i for i, _ in grp)
        blocks.append((atype, positions))
    order = 1
    for _, pos in blocks:
        order *= math.factorial(len(pos))
    return VertexGroup(node=c, blocks=tuple(blocks), order=order)


def input_isomorphisms(net: Network, c: int, d: int) -> list[dict[int, int]]:
    """All arrow-type preserving bijections I(c) -> I(d), as arrow-id maps.
    Empty when the nodes are not input equivalent."""
    if not net.input_equivalent(c, d):
        return []
    ic, idd = net.input_set(c), net.input_set(d)
    by_type_c: dict[str, list[Arrow]] = {}
    by_type_d: dict[str, list[Arrow]] = {}
    for a in ic:
        by_type_c.setdefault(a.arrow_type, []).append(a)
    for a in idd:
        by_type_d.setdefault(a.arrow_type, []).append(a)
    maps: list[dict[int, int]] = [{}]
    for t, src in by_type_c.items():
        tgt = by_type_d[t]
        new = []
        for base in maps:
            for image in itertools.permutations(tgt):
                m = dict(base)
                for a, b in zip(src, image):
                    m[a.id] = b.id
                new.append(m)
        maps = new
    return maps


# -- transitive components ----------------------------------------------

@dataclass(frozen=True)
class ComponentDag:
    """Strongly connected components with their acyclic condensation."""

    components: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]      # indices into components
    maximal: tuple[int, ...]                # indices with no incoming edge

    def component_of(self, c: int) -> int:
        for i, comp in enumerate(self.components):
            if c in comp:
                return i
        raise NetworkError(f"unknown node id {c}")

    def maximal_node_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(self.components[i] for i in self.maximal)


def transitive_components(net: Network) -> ComponentDag:
    """Tarjan SCCs of the arrow digraph plus the condensation ordering.
    Maximal components are the upstream-most ones: they force the rest."""
    succ: dict[int, list[int]] = {c: [] for c in net.node_ids}
    for a in net.arrows:
        succ[a.tail].append(a.head)

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    comps: list[frozenset[int]] = []
    counter = itertools.count()

    def strongconnect(v: int):
        work = [(v, iter(succ[v]))]
        index[v] = low[v] = next(counter)
        stack.append(v)
        onstack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif w in onstack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(frozenset(comp))

    for v in net.node_ids:
        if v not in index:
            strongconnect(v)

    comps.sort(key=min)
    where = {c: i for i, comp in enumerate(comps) for c in comp}
    edges = set()
    for a in net.arrows:
        i, j = where[a.tail], where[a.head]
        if i != j:
            edges.add((i, j))
    has_in = {j for _, j in edges}
    maximal = tuple(i for i in range(len(comps)) if i not in has_in)
    return ComponentDag(components=tuple(comps), edges=tuple(sorted(edges)),
                        maximal=maximal)


# -- automorphisms -------------------------------------------------------

def _arrow_counts(net: Network) -> dict[tuple[str, int, int], int]:
    counts: dict[tuple[str, int, int], int] = {}
    for a in net.arrows:
        key = (a.arrow_type, a.head, a.tail)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _isomorphisms(net1: Network, net2: Network) -> Iterator[dict[int, int]]:
    """Node maps net1 -> net2 that preserve node types and carry every
    typed arrow count of net1 to an equal count in net2, in the order of
    itertools.permutations(net2.node_ids).

    A depth-first search maps net1.node_ids in order.  A node's candidates
    are net2's untaken ids of its node type, in net2.node_ids order, and a
    candidate is dropped as soon as a count whose later endpoint is this
    node differs at the images.  Equal arrow totals, checked by the caller
    when net1 is not net2, make each map an isomorphism.
    """
    ids1, ids2 = net1.node_ids, net2.node_ids
    pos = {c: i for i, c in enumerate(ids1)}
    counts2 = _arrow_counts(net2)
    checks: list[list[tuple]] = [[] for _ in ids1]
    for (t, h, tl), k in _arrow_counts(net1).items():
        checks[max(pos[h], pos[tl])].append((t, h, tl, k))
    types1 = [net1.node_type(c) for c in ids1]
    sigma: dict[int, int] = {}
    taken: set[int] = set()

    def extend(i: int):
        if i == len(ids1):
            yield dict(sigma)
            return
        c = ids1[i]
        for d in ids2:
            if d in taken or net2.node_type(d) != types1[i]:
                continue
            sigma[c] = d
            if all(counts2.get((t, sigma[h], sigma[tl]), 0) == k
                   for t, h, tl, k in checks[i]):
                taken.add(d)
                yield from extend(i + 1)
                taken.discard(d)
            del sigma[c]

    return extend(0)


def automorphisms(net: Network, cap: int = 8) -> list[dict[int, int]]:
    """All node permutations preserving node types and arrow-type-counted
    adjacency, by the pruned search of _isomorphisms, in
    itertools.permutations(net.node_ids) order.  Raises when the node
    count exceeds cap."""
    ids = net.node_ids
    if len(ids) > cap:
        raise NetworkError(f"automorphism search capped at {cap} nodes, "
                           f"network has {len(ids)}")
    return list(_isomorphisms(net, net))


def isomorphic(net1: Network, net2: Network, cap: int = 8) -> bool:
    """Isomorphism test (node types + typed adjacency counts) by the pruned
    search of _isomorphisms: a map that carries each of net1's counts to
    net2, with equal arrow totals, leaves no arrow of net2 unmatched."""
    ids1, ids2 = net1.node_ids, net2.node_ids
    if len(ids1) != len(ids2):
        return False
    if len(ids1) > cap:
        raise NetworkError(f"isomorphism search capped at {cap} nodes")
    if len(net1.arrows) != len(net2.arrows):
        return False
    return next(_isomorphisms(net1, net2), None) is not None


# -- validation -----------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    state_classes: tuple[tuple[int, ...], ...]
    dim_consistent: bool
    dim_errors: list[str] = field(default_factory=list)
    irredundancy_warnings: list[str] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        return list(self.irredundancy_warnings)


def validate_network(net: Network, dims: Mapping[str, int] | None = None) -> ValidationReport:
    """Check dimension consistency against state equivalence and warn about
    redundant arrow typing.

    State-equivalent nodes must share a state-space dimension; `dims` maps
    node types to dimensions.  An arrow type shared by arrows whose heads
    are not input equivalent is reported as a redundancy warning (the
    admissible-map space is unaffected, but adjacency matrices for that
    type mix distinct groupoid orbits).
    """
    state = net.state_partition
    dim_errors: list[str] = []
    dim_consistent = True
    if dims is not None:
        for t in net.node_types():
            if t not in dims:
                dim_errors.append(f"no dimension given for node type {t!r}")
        for cls in state:
            seen = {}
            for c in cls:
                t = net.node_type(c)
                if t in dims:
                    seen.setdefault(dims[t], []).append(c)
            if len(seen) > 1:
                dim_consistent = False
                dim_errors.append(
                    f"state-equivalent nodes {cls} carry unequal dimensions "
                    f"{sorted(seen)}")
        if dim_errors:
            dim_consistent = dim_consistent and not any(
                "no dimension" in e for e in dim_errors)

    warnings = []
    heads_by_type: dict[str, set[int]] = {}
    for a in net.arrows:
        heads_by_type.setdefault(a.arrow_type, set()).add(a.head)
    for t, heads in sorted(heads_by_type.items()):
        sigs = {net.input_signature(c) for c in heads}
        if len(sigs) > 1:
            warnings.append(
                f"arrow type {t!r} is shared by arrows whose head nodes are "
                f"not input equivalent (heads {sorted(heads)}); consider "
                f"splitting the type per head class")

    ok = dim_consistent and not dim_errors
    return ValidationReport(ok=ok, state_classes=state,
                            dim_consistent=dim_consistent and not dim_errors,
                            dim_errors=dim_errors,
                            irredundancy_warnings=warnings)


# -- JSON ----------------------------------------------------------------

def network_to_json(net: Network) -> dict:
    return {
        "nodes": [{"id": n.id, "type": n.node_type} for n in net.nodes],
        "arrows": [{"id": a.id, "type": a.arrow_type, "head": a.head, "tail": a.tail}
                   for a in net.arrows],
    }


def network_from_json(data: dict | str) -> Network:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        nodes = [Node(id=int(n["id"]), node_type=str(n["type"])) for n in data["nodes"]]
        arrows = [Arrow(id=int(a["id"]), arrow_type=str(a["type"]),
                        head=int(a["head"]), tail=int(a["tail"]))
                  for a in data.get("arrows", [])]
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed network JSON: {exc}") from exc
    return Network(nodes, arrows)


def mk_network(node_types: Sequence[str] | Mapping[int, str],
               arrows: Sequence[tuple[str, int, int]]) -> Network:
    """Compact constructor: node_types by 1-based position (or id map),
    arrows as (type, head, tail) with ids assigned in order."""
    if isinstance(node_types, Mapping):
        nodes = [Node(id=i, node_type=t) for i, t in sorted(node_types.items())]
    else:
        nodes = [Node(id=i + 1, node_type=t) for i, t in enumerate(node_types)]
    arrs = [Arrow(id=i + 1, arrow_type=t, head=h, tail=tl)
            for i, (t, h, tl) in enumerate(arrows)]
    return Network(nodes, arrs)
