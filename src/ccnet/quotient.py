"""Quasi-quotients, restriction/lifting of systems, doubling, shearing.

For any colouring and any transversal R (one node per colour) the
quasi-quotient keeps the nodes of R together with their input arrows,
retargeting each tail to the representative of its colour.  When the
colouring is balanced the construction is independent of R up to
isomorphism and coincides with the usual quotient; in general it is not,
and the discarded node equations become constraints whose residual along
a trajectory measures how far synchrony is from being dynamically
consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .admissible import AdmissibleSystem, PerturbedSystem, StateLayout
from .colouring import Colouring, ColouringError, validate_colouring
from .network import Arrow, Network, NetworkError, Node, transitive_components


@dataclass(frozen=True)
class QuasiQuotient:
    base: Network
    colouring: Colouring
    representatives: tuple[int, ...]
    network: Network
    bracket: Mapping[int, int]          # base node -> its representative
    arrow_origin: Mapping[int, int]     # quotient arrow id -> base arrow id


def quasi_quotient(net: Network, col: Colouring, representatives: Iterable[int]) -> QuasiQuotient:
    """Build the quotient-by-representatives network.

    Raises when `representatives` is not a transversal of the colouring.
    """
    reps = tuple(sorted(representatives))
    if col.nodes != net.node_ids:
        raise ColouringError("colouring is not over this network's nodes")
    if not col.is_transversal(reps):
        raise ColouringError(
            f"{reps} is not a transversal: need exactly one node per colour")
    rep_by_colour = {col.colour_of(r): r for r in reps}
    bracket = {c: rep_by_colour[col.colour_of(c)] for c in net.node_ids}

    nodes = [Node(id=r, node_type=net.node_type(r)) for r in reps]
    arrows = []
    origin = {}
    for r in reps:
        for a in net.input_set(r):
            arrows.append(Arrow(id=a.id, arrow_type=a.arrow_type,
                                head=r, tail=bracket[a.tail]))
            origin[a.id] = a.id
    return QuasiQuotient(base=net, colouring=col, representatives=reps,
                         network=Network(nodes, arrows), bracket=bracket,
                         arrow_origin=origin)


def _slot_map_base_to_quotient(qq: QuasiQuotient, r: int) -> dict[int, int]:
    """1-based position of each input arrow of r in base standard order ->
    its position in quotient standard order (same arrow ids, retargeted
    tails may reorder within an arrow-type block)."""
    base_pos = {a.id: j + 1 for j, a in enumerate(qq.base.input_set(r))}
    qpos = {a.id: j + 1 for j, a in enumerate(qq.network.input_set(r))}
    return {base_pos[aid]: qpos[aid] for aid in base_pos}


def restrict(sys: AdmissibleSystem, qq: QuasiQuotient) -> AdmissibleSystem:
    """Induced system on the quasi-quotient: the component of each
    representative r evaluated at bracketed tails, x_r' = f_r(x_r, x_[T(r)])."""
    if sys.network != qq.base:
        raise NetworkError("system is not over the quotient's base network")
    for part in qq.colouring.parts:
        dims = {sys.node_dim(c) for c in part}
        if len(dims) > 1:
            raise ColouringError(
                f"colouring identifies nodes {part} with unequal dimensions {sorted(dims)}")
    validate_colouring(qq.base, qq.colouring)
    qnet = qq.network
    comps = {}
    for cls in qnet.input_partition:
        rq = cls[0]
        comps[rq] = sys.component_for(rq).remap_slots(_slot_map_base_to_quotient(qq, rq))
    dims = {t: sys.dims[t] for t in qnet.node_types()}
    return AdmissibleSystem(qnet, dims, comps, symmetrise=sys.symmetrise)


def lift(sys_q: AdmissibleSystem, qq: QuasiQuotient) -> AdmissibleSystem:
    """Lift a quotient system to the base: classes containing a
    representative share its component (read through its own inputs);
    all other classes get the zero component.  restrict(lift(g)) == g,
    and the lift never increases the C1 norm."""
    if sys_q.network != qq.network:
        raise NetworkError("system is not over the quotient network")
    base = qq.base
    rset = set(qq.representatives)
    comps: dict[int, object] = {}
    dims = dict(sys_q.dims)
    for t in base.node_types():
        if t not in dims:
            raise ColouringError(f"no dimension known for node type {t!r} of the base")
    for cls in base.input_partition:
        in_r = sorted(set(cls) & rset)
        if in_r:
            r = in_r[0]
            inv = {v: k for k, v in _slot_map_base_to_quotient(qq, r).items()}
            comps[cls[0]] = sys_q.component_for(r).remap_slots(inv)
        else:
            k = dims[base.node_type(cls[0])]
            comps[cls[0]] = ", ".join(["0"] * k)
    return AdmissibleSystem(base, dims, comps, symmetrise=sys_q.symmetrise)


def lift_grid(points: np.ndarray, qq: QuasiQuotient,
              q_layout: StateLayout, base_layout: StateLayout) -> np.ndarray:
    """Map quotient grid points into the base polydiagonal via brackets."""
    points = np.atleast_2d(points)
    out = np.zeros((points.shape[0], base_layout.total_dim))
    for c in base_layout.node_ids:
        r = qq.bracket[c]
        out[:, base_layout.slice_of(c)] = points[:, q_layout.slice_of(r)]
    return out


def constraint_residual(sys, col: Colouring, representatives: Iterable[int],
                        traj_states: np.ndarray,
                        traj_times: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Residual time series of the constraint equations along a trajectory.

    States are first projected onto the polydiagonal of `col`.  For each
    node c outside the representative set the residual at each sample is
    |f_c(x_[c], x_[T(c)]) - f_[c](x_[c], x_[T([c])])|: the discarded
    equation against the induced one.  Identically zero residuals mean the
    synchronous trajectory solves the full system.
    """
    from .admissible import project_polydiagonal

    base_sys = sys.base if isinstance(sys, PerturbedSystem) else sys
    net = base_sys.network
    qq = quasi_quotient(net, col, representatives)
    lay = base_sys.layout
    states = np.atleast_2d(np.asarray(traj_states, dtype=float))
    cmap = col.colour_map
    out: dict[int, list[float]] = {c: [] for c in net.node_ids
                                   if c not in set(qq.representatives)}
    for x in states:
        xp = project_polydiagonal(lay, cmap, x)
        for c in out:
            r = qq.bracket[c]
            self_val = xp[lay.slice_of(r)]
            ins_c = [xp[lay.slice_of(qq.bracket[t])] for t in net.input_tails(c)]
            ins_r = [xp[lay.slice_of(qq.bracket[t])] for t in net.input_tails(r)]
            fc = sys.component_value(c, self_val, ins_c)
            fr = sys.component_value(r, self_val, ins_r)
            out[c].append(float(np.linalg.norm(fc - fr)))
    return {c: np.asarray(v) for c, v in out.items()}


# -- good transversals ---------------------------------------------------------

def find_good_representatives(net: Network, col: Colouring,
                               cap: int = 512) -> tuple[int, ...] | None:
    """First transversal (lexicographic) whose quasi-quotient has a single
    maximal transitive component, or None if none exists within the cap.

    Whether such a choice always exists when the base has one maximal
    component is unknown; the search is exhaustive only up to the cap.
    """
    parts = col.parts
    total = 1
    for p in parts:
        total *= len(p)
    if total > cap:
        raise NetworkError(f"transversal search capped at {cap}, "
                           f"colouring has {total} transversals")
    for combo in itertools.product(*parts):
        qq = quasi_quotient(net, col, combo)
        if len(transitive_components(qq.network).maximal) == 1:
            return tuple(sorted(combo))
    return None


# -- doubling -------------------------------------------------------------------

@dataclass(frozen=True)
class DoubledNetwork:
    """Two disjoint copies of a network.  Node types are kept, so matching
    nodes of the two copies are input equivalent and admissible systems are
    exactly the pairs (f, f)."""

    base: Network
    network: Network
    copy1: Mapping[int, int]
    copy2: Mapping[int, int]

    def copy_of(self, c: int) -> tuple[int, int]:
        """(copy index, base node) of a doubled node id."""
        inv1 = {v: k for k, v in self.copy1.items()}
        inv2 = {v: k for k, v in self.copy2.items()}
        if c in inv1:
            return 1, inv1[c]
        return 2, inv2[c]


def double(net: Network) -> DoubledNetwork:
    node_off = max(net.node_ids)
    arrow_off = max((a.id for a in net.arrows), default=0)
    copy1 = {c: c for c in net.node_ids}
    copy2 = {c: c + node_off for c in net.node_ids}
    nodes = [Node(id=n.id, node_type=n.node_type) for n in net.nodes]
    nodes += [Node(id=n.id + node_off, node_type=n.node_type) for n in net.nodes]
    arrows = [Arrow(id=a.id, arrow_type=a.arrow_type, head=a.head, tail=a.tail)
              for a in net.arrows]
    arrows += [Arrow(id=a.id + arrow_off, arrow_type=a.arrow_type,
                     head=a.head + node_off, tail=a.tail + node_off)
               for a in net.arrows]
    return DoubledNetwork(base=net, network=Network(nodes, arrows),
                          copy1=copy1, copy2=copy2)


def doubled_system(sys: AdmissibleSystem, dbl: DoubledNetwork) -> AdmissibleSystem:
    """The pair system (f, f) on the doubled network."""
    if sys.network != dbl.base:
        raise NetworkError("system is not over the doubled network's base")
    comps = {rep: comp for rep, comp in sys.components.items()}
    return AdmissibleSystem(dbl.network, dict(sys.dims), comps,
                            symmetrise=sys.symmetrise)


def shear(orbit, theta: float) -> np.ndarray:
    """Sheared doubled samples (x(t), x(t + theta*T)) over the orbit's
    uniform period grid, the shifted copy read off the orbit's
    trigonometric interpolant so that theta need not sit on the grid."""
    return np.hstack([orbit.samples, orbit.shifted(theta)])
