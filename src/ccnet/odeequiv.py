"""Adjacency matrices, linear/ODE-equivalence, 2-node classification.

Two networks on the same node set are ODE-equivalent exactly when their
linear admissible maps span the same matrix space, which reduces the
decision to row-space equality over the rationals.  All arithmetic is
exact (fractions): floating-point rank is unsafe for span comparisons.

Raw arrow-type matrices are ambiguous when a type is redundant (shared by
arrows whose heads are not input equivalent), so span computations use the
groupoid-orbit decomposition instead: one diagonal indicator per input
class and, per (input class, arrow type), the type's matrix masked to that
class's rows.  For irredundant networks this agrees with the raw matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .network import Network, NetworkError

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdjacencySet:
    """One integer matrix per arrow type (entry (i, j) counts arrows of the
    type with head i, tail j, in node-id order) plus one 0/1 diagonal
    idempotent per node type; the diagonals sum to the identity."""

    node_order: tuple[int, ...]
    node_type_matrices: dict[str, Matrix]
    arrow_matrices: dict[str, Matrix]

    def all_matrices(self) -> list[Matrix]:
        return ([self.node_type_matrices[t] for t in sorted(self.node_type_matrices)]
                + [self.arrow_matrices[t] for t in sorted(self.arrow_matrices)])


def adjacency_matrices(net: Network) -> AdjacencySet:
    order = net.node_ids
    idx = {c: i for i, c in enumerate(order)}
    n = len(order)
    ntm = {}
    for t in net.node_types():
        ntm[t] = tuple(tuple(1 if (i == j and net.node_type(order[i]) == t) else 0
                             for j in range(n)) for i in range(n))
    am = {}
    for t in net.arrow_types():
        m = [[0] * n for _ in range(n)]
        for a in net.arrows:
            if a.arrow_type == t:
                m[idx[a.head]][idx[a.tail]] += 1
        am[t] = tuple(tuple(r) for r in m)
    return AdjacencySet(node_order=order, node_type_matrices=ntm, arrow_matrices=am)


def orbit_matrices(net: Network) -> list[Matrix]:
    """Span generators of the linear admissible maps: a diagonal indicator
    per input class plus each arrow type's matrix masked to each class's
    rows (nonzero ones only)."""
    order = net.node_ids
    idx = {c: i for i, c in enumerate(order)}
    n = len(order)
    out: list[Matrix] = []
    raw = adjacency_matrices(net).arrow_matrices
    for cls in net.input_partition:
        rows = {idx[c] for c in cls}
        out.append(tuple(tuple(1 if (i == j and i in rows) else 0 for j in range(n))
                         for i in range(n)))
        for t in sorted(raw):
            m = tuple(tuple(raw[t][i][j] if i in rows else 0 for j in range(n))
                      for i in range(n))
            if any(any(r) for r in m):
                out.append(m)
    return out


# -- exact row spaces ------------------------------------------------------------

def _rref(rows: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return ()
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [v / pv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    basis = [tuple(r) for r in rows[:pivot_row] if any(r)]
    return tuple(basis)


def row_space(mats: Sequence[Matrix]) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical (RREF) basis of the span of flattened matrices."""
    rows = [[Fraction(v) for row in m for v in row] for m in mats]
    return _rref(rows)


def span_dim(mats: Sequence[Matrix]) -> int:
    return len(row_space(mats))


def linearly_equivalent(n1: Network, n2: Network) -> bool:
    """Equal rational row spans of the adjacency data (nodes matched in
    id order).  Equivalent to equality of the admissible-map spaces."""
    if len(n1.node_ids) != len(n2.node_ids):
        raise NetworkError("linear equivalence needs equal node counts")
    return row_space(orbit_matrices(n1)) == row_space(orbit_matrices(n2))


# -- 2-node classification ---------------------------------------------------------

class ClassificationError(NetworkError):
    """The admissible-map span of a 2-node network fits none of the eight
    canonical classes (an internal inconsistency, never a user error)."""


def _require(ok: bool, message: str):
    if not ok:
        raise ClassificationError(message)


@dataclass(frozen=True)
class TwoNodeClass:
    """Canonical class 1..8; classes 1/2 disconnected, 5/6 feedforward,
    3 the general system, 4 the symmetric ring, 7 the full homogeneous
    span, 8 the coprime two-parameter family (p, q > 0, gcd 1)."""

    class_id: int
    p: int | None = None
    q: int | None = None
    swapped: bool = False

    def __str__(self):
        if self.class_id == 8:
            return f"class 8 (p={self.p}, q={self.q})"
        return f"class {self.class_id}"


def _swap2(m: Matrix) -> Matrix:
    return ((m[1][1], m[1][0]), (m[0][1], m[0][0]))


def classify_2node(net: Network) -> TwoNodeClass:
    """Decide which of the eight canonical 2-node networks the given one is
    ODE-equivalent to; exact arithmetic throughout."""
    if len(net.node_ids) != 2:
        raise NetworkError("classification needs exactly 2 nodes")
    gens = orbit_matrices(net)
    basis = row_space(gens)

    def unflatten(row):
        return ((row[0], row[1]), (row[2], row[3]))

    bmats = [unflatten(r) for r in basis]
    dim = len(bmats)

    diagonal_only = all(m[0][1] == 0 and m[1][0] == 0 for m in bmats)
    if diagonal_only:
        return TwoNodeClass(1) if dim == 1 else TwoNodeClass(2)

    homogeneous = all(m[0][0] + m[0][1] == m[1][0] + m[1][1] for m in bmats)

    lower = all(m[0][1] == 0 for m in bmats)
    upper = all(m[1][0] == 0 for m in bmats)
    if lower or upper:
        swapped = upper and not lower
        if homogeneous:
            return TwoNodeClass(6, swapped=swapped)
        _require(dim == 3, f"inhomogeneous feedforward span must be 3-dim, got {dim}")
        return TwoNodeClass(5, swapped=swapped)

    if not homogeneous:
        _require(dim == 4, f"inhomogeneous transitive span must be 4-dim, got {dim}")
        return TwoNodeClass(3)

    if dim == 3:
        return TwoNodeClass(7)

    _require(dim == 2, f"homogeneous transitive span must be 2- or 3-dim, got {dim}")
    candidates = [m for m in gens
                  if not (m[0][1] == 0 and m[1][0] == 0)]
    mat = None
    for m in candidates:
        if m[0][1] > 0 and m[1][0] > 0:
            mat = m
            break
    _require(mat is not None, "2-dim transitive span without an all-to-all generator")
    swapped = mat[0][0] > mat[1][1]
    if swapped:
        mat = _swap2(mat)
    a, b = mat[0]
    c, d = mat[1]
    b0, c0 = b, c  # off-diagonal part survives subtracting a*I
    d0 = d - a
    _require(d0 == b0 - c0 >= 0,
             "homogeneous generator must reduce to [[0,b],[c,b-c]]")
    from math import gcd
    g = gcd(b0, c0)
    b0, c0 = b0 // g, c0 // g
    p, q = b0 - c0, c0
    if p == 0:
        return TwoNodeClass(4, swapped=swapped)
    _require(q > 0, "q = 0 should have been caught by the feedforward branch")
    return TwoNodeClass(8, p=p, q=q, swapped=swapped)
