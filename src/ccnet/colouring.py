"""Colourings of a network: balance, the refinement lattice, enumeration.

A colouring is a partition of the nodes, canonicalised so that colour ids
are dense small integers numbered by first occurrence in node-id order.
A colouring is *balanced* when same-coloured nodes have input sets that
match as multisets of (arrow type, tail colour) pairs and share a node
type; equivalently, a colour-preserving input isomorphism exists between
them.  Balanced colourings are exactly those whose polydiagonal is
invariant under every admissible vector field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .network import Network, NetworkError, merge_pairs


class ColouringError(ValueError):
    pass


class LatticePosition(Enum):
    EQUAL = "equal"
    FINER = "finer"
    COARSER = "coarser"
    INCOMPARABLE = "incomparable"


def _canonical(nodes: tuple[int, ...], raw: Mapping[int, int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in nodes:
        col = raw[c]
        if col not in relabel:
            relabel[col] = len(relabel)
        out.append(relabel[col])
    return tuple(out)


@dataclass(frozen=True)
class Colouring:
    """Canonical partition of a fixed node set."""

    nodes: tuple[int, ...]
    colours: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.colours):
            raise ColouringError("nodes/colours length mismatch")
        if self.colours != _canonical(self.nodes, dict(zip(self.nodes, self.colours))):
            raise ColouringError("colour ids must be dense, numbered by first occurrence")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_map(colour_of: Mapping[int, int]) -> "Colouring":
        nodes = tuple(sorted(colour_of))
        return Colouring(nodes, _canonical(nodes, colour_of))

    @staticmethod
    def from_parts(nodes: Iterable[int], parts: Iterable[Iterable[int]]) -> "Colouring":
        nodes = tuple(sorted(nodes))
        cmap: dict[int, int] = {}
        for i, part in enumerate(parts):
            for c in part:
                if c in cmap:
                    raise ColouringError(f"node {c} appears in two parts")
                cmap[c] = i
        if set(cmap) != set(nodes):
            raise ColouringError("parts do not partition the node set")
        return Colouring.from_map(cmap)

    @staticmethod
    def discrete(nodes: Iterable[int]) -> "Colouring":
        nodes = tuple(sorted(nodes))
        return Colouring(nodes, tuple(range(len(nodes))))

    @staticmethod
    def monochrome(nodes: Iterable[int]) -> "Colouring":
        nodes = tuple(sorted(nodes))
        return Colouring(nodes, (0,) * len(nodes))

    # -- views -----------------------------------------------------------

    def colour_of(self, c: int) -> int:
        try:
            return self.colours[self.nodes.index(c)]
        except ValueError:
            raise ColouringError(f"node {c} not in colouring") from None

    @property
    def colour_map(self) -> dict[int, int]:
        return dict(zip(self.nodes, self.colours))

    @property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        out: dict[int, list[int]] = {}
        for c, col in zip(self.nodes, self.colours):
            out.setdefault(col, []).append(c)
        return tuple(tuple(out[k]) for k in sorted(out))

    @property
    def n_colours(self) -> int:
        return max(self.colours) + 1 if self.colours else 0

    def __str__(self):
        return "{" + ",".join("{" + ",".join(map(str, p)) + "}" for p in self.parts) + "}"

    def representatives(self) -> tuple[int, ...]:
        """Least node id of each colour, ordered by colour id."""
        seen: dict[int, int] = {}
        for c, col in zip(self.nodes, self.colours):
            seen.setdefault(col, c)
        return tuple(seen[k] for k in sorted(seen))

    def is_transversal(self, reps: Iterable[int]) -> bool:
        reps = tuple(reps)
        cols = [self.colour_of(r) for r in reps]
        return len(reps) == self.n_colours and len(set(cols)) == self.n_colours


# -- lattice ---------------------------------------------------------------

def _check_same_nodes(a: Colouring, b: Colouring):
    if a.nodes != b.nodes:
        raise ColouringError("colourings live on different node sets")


def refines(a: Colouring, b: Colouring) -> bool:
    """Non-strict: every part of a is contained in a part of b."""
    _check_same_nodes(a, b)
    seen: dict[int, int] = {}
    for ca, cb in zip(a.colours, b.colours):
        if ca in seen:
            if seen[ca] != cb:
                return False
        else:
            seen[ca] = cb
    return True


def compare(a: Colouring, b: Colouring) -> LatticePosition:
    down, up = refines(a, b), refines(b, a)
    if down and up:
        return LatticePosition.EQUAL
    if down:
        return LatticePosition.FINER
    if up:
        return LatticePosition.COARSER
    return LatticePosition.INCOMPARABLE


def meet(a: Colouring, b: Colouring) -> Colouring:
    """Common refinement: colours are pairs of colours."""
    _check_same_nodes(a, b)
    raw = {c: (ca << 16) | cb for c, ca, cb in zip(a.nodes, a.colours, b.colours)}
    return Colouring(a.nodes, _canonical(a.nodes, raw))


def join(a: Colouring, b: Colouring) -> Colouring:
    """Transitive closure of the union of the two relations."""
    _check_same_nodes(a, b)
    pairs = [(part[0], c) for col in (a, b) for part in col.parts for c in part[1:]]
    return Colouring.from_parts(a.nodes, merge_pairs(a.nodes, pairs))


# -- network-aware constructions -------------------------------------------

def input_classes(net: Network) -> Colouring:
    """Partition of nodes by existence of an input isomorphism (same node
    type, equal multiset of input arrow types)."""
    return Colouring.from_parts(net.node_ids, net.input_partition)


def state_equivalence(net: Network) -> Colouring:
    """Finest partition under which state spaces may be assigned freely."""
    return Colouring.from_parts(net.node_ids, net.state_partition)


def validate_colouring(net: Network, col: Colouring):
    """A colouring may only identify state-equivalent nodes."""
    if col.nodes != net.node_ids:
        raise ColouringError("colouring is not over this network's nodes")
    state = state_equivalence(net)
    if not refines(col, state):
        raise ColouringError("colouring identifies nodes that are not state equivalent")


def coloured_signature(net: Network, c: int, cmap: Mapping[int, int]) -> tuple:
    """(node type, sorted (arrow type, tail colour) over c's inputs) under
    the colour map cmap."""
    return (net.node_type(c),
            tuple(sorted((a.arrow_type, cmap[a.tail]) for a in net.input_set(c))))


def is_balanced(net: Network, col: Colouring) -> bool:
    """Multiset criterion: same-coloured nodes must share node type and the
    multiset of (arrow type, tail colour) pairs over their input sets.

    Because vertex groups are full symmetric products per arrow type, this
    is equivalent to the existence of a colour-preserving input isomorphism
    between any two same-coloured nodes, with no bijection search.
    """
    if col.nodes != net.node_ids:
        raise ColouringError("colouring is not over this network's nodes")
    cmap = col.colour_map
    for part in col.parts:
        first = coloured_signature(net, part[0], cmap)
        if any(coloured_signature(net, c, cmap) != first for c in part[1:]):
            return False
    return True


def refinement_round(net: Network, col: Colouring) -> Colouring:
    """One splitting pass: nodes keep their colour only if they agree on
    (node type, multiset of (arrow type, tail colour)) with their class."""
    cmap = col.colour_map
    order: dict[tuple, int] = {}
    out = {}
    for c in net.node_ids:
        s = (cmap[c], coloured_signature(net, c, cmap))
        if s not in order:
            order[s] = len(order)
        out[c] = order[s]
    return Colouring.from_map(out)


def coarsest_balanced_refinement(net: Network, col: Colouring) -> Colouring:
    """Coarsest balanced colouring finer than col: the fixed point of
    signature splitting.

    A round's signature includes the current colour, so each round refines
    the colouring; a round that changes it adds at least one colour, so
    the fixed point comes within n rounds for n nodes.
    """
    current = col
    while True:
        nxt = refinement_round(net, current)
        if nxt.colours == current.colours:
            return current
        current = nxt


def enumerate_balanced(net: Network, cap: int = 10) -> list[Colouring]:
    """All balanced colourings, sorted coarsest-first by (colour count,
    colours).

    A depth-first search assigns colours in node-id order.  A node takes a
    colour already used in its input class or the next new colour (a
    restricted-growth string per class), so every product of per-class set
    partitions is reached once.  Assigned colours never change, so once a
    node and all its tails are assigned its (arrow type, tail colour)
    signature is final: it is compared with the first final signature of
    its colour there, and the branch is dropped on a mismatch.  Every node
    is checked once, so exactly the balanced colourings are kept.
    """
    ids = net.node_ids
    n = len(ids)
    if n > cap:
        raise NetworkError(f"balanced enumeration capped at {cap} nodes, "
                           f"network has {n}")
    pos = {c: i for i, c in enumerate(ids)}
    cls_of = {c: k for k, cls in enumerate(net.input_partition) for c in cls}
    ins = [[(a.arrow_type, pos[a.tail]) for a in net.input_set(c)] for c in ids]
    ready: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        ready[max([j] + [t for _, t in ins[j]])].append(j)
    colour = [0] * n
    class_colours: list[list[int]] = [[] for _ in net.input_partition]
    first_sig: dict[int, list] = {}
    found = []

    def extend(i: int, used: int):
        if i == n:
            found.append(Colouring(ids, tuple(colour)))
            return
        own = class_colours[cls_of[ids[i]]]
        for col in own + [used]:
            colour[i] = col
            stored = []
            ok = True
            for j in ready[i]:
                sig = sorted((t, colour[p]) for t, p in ins[j])
                ref = first_sig.get(colour[j])
                if ref is None:
                    first_sig[colour[j]] = sig
                    stored.append(colour[j])
                elif ref != sig:
                    ok = False
                    break
            if ok:
                if col == used:
                    own.append(col)
                    extend(i + 1, used + 1)
                    own.pop()
                else:
                    extend(i + 1, used)
            for col_j in stored:
                del first_sig[col_j]

    extend(0, 0)
    found.sort(key=lambda c: (c.n_colours, c.colours))
    return found


# -- JSON -------------------------------------------------------------------

def colouring_to_json(col: Colouring) -> dict:
    return {"colours": {str(c): int(k) for c, k in zip(col.nodes, col.colours)}}


def colouring_from_json(data: dict | str) -> Colouring:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        return Colouring.from_map({int(c): int(k) for c, k in data["colours"].items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ColouringError(f"malformed colouring JSON: {exc}") from exc
