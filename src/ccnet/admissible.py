"""Admissible vector fields built from per-input-class components.

A system attaches one component expression to each input-equivalence-class
representative; other class members alias the same expression object, so
the sharing required for admissibility is structural.  What remains is
vertex-group invariance of each component, either checked numerically at
construction or enforced by averaging over the group (symmetrise flag).

The module also provides the perturbation toolkit: the one bump field,
Perturbation, a plateau averaged over the group translates of its centre
and packed for the flow drivers by PerturbedSystem; symmetrise_component,
the one vertex-group average; and a grid estimator for the C1 norm used to
calibrate perturbation sizes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _compile
from .expr import Arity, ComponentExpr, EvaluationError, parse_component
from .network import Network, NetworkError, VertexGroup, validate_network, vertex_group


class AdmissibleError(ValueError):
    pass


# -- state layout -----------------------------------------------------------

@dataclass(frozen=True)
class StateLayout:
    """Flat float64 layout of the product state space, nodes in id order."""

    node_ids: tuple[int, ...]
    dims: tuple[int, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for d in self.dims:
            out.append(acc)
            acc += d
        return tuple(out)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def index_of(self, c: int) -> int:
        try:
            return self.node_ids.index(c)
        except ValueError:
            raise NetworkError(f"unknown node id {c}") from None

    def offset_of(self, c: int) -> int:
        return self.offsets[self.index_of(c)]

    def dim_of(self, c: int) -> int:
        return self.dims[self.index_of(c)]

    def slice_of(self, c: int) -> slice:
        i = self.index_of(c)
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    def node_value(self, x: np.ndarray, c: int) -> np.ndarray:
        return np.asarray(x)[..., self.slice_of(c)]

    def pack(self, values: Mapping[int, Sequence[float]]) -> np.ndarray:
        x = np.zeros(self.total_dim)
        for c, v in values.items():
            v = np.asarray(v, dtype=float)
            if v.shape != (self.dim_of(c),):
                raise AdmissibleError(f"node {c} expects dimension {self.dim_of(c)}")
            x[self.slice_of(c)] = v
        return x

    def unpack(self, x: np.ndarray) -> dict[int, np.ndarray]:
        return {c: np.array(x[self.slice_of(c)]) for c in self.node_ids}


def layout_for(net: Network, dims: Mapping[str, int]) -> StateLayout:
    return StateLayout(node_ids=net.node_ids,
                       dims=tuple(dims[net.node_type(c)] for c in net.node_ids))


# -- compiled field -----------------------------------------------------------

# floating-point warnings the drivers and evaluate turn off: divergence is
# reported through FlowDiverged or an attributed AdmissibleError instead
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


class CompiledField:
    """A compiled rhs, its block twin over (n, B) arrays of states, and an
    (optionally empty) perturbation pack.

    pack holds the packed bump arrays; lpack is their nested-list twin,
    built once here, which the flow drivers' bump loops read.  flow and
    flow_record run the scalar rhs on Python lists of floats: a division by
    zero, an overflow in a power or exp, or a math domain error ends a flow
    as FlowDiverged, like a trajectory past the blow-up guard.  eval runs
    the scalar rhs on NumPy scalars, where those give inf or nan.
    """

    def __init__(self, rhs, rhs_block, pack, layout: StateLayout):
        self.rhs = rhs
        self.rhs_block = rhs_block
        self.pack = pack
        self.lpack = tuple(a.tolist() for a in pack)
        self.layout = layout

    def eval(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.layout.total_dim)
        x = np.ascontiguousarray(x, dtype=float)
        with np.errstate(**_QUIET):
            self.rhs(x, out)
            if self.pack[0].shape[0] > 1:
                _compile._apply_bumps(x, out, *self.pack)
        return out

    def flow(self, x0: np.ndarray, h: float, nsteps: int) -> np.ndarray:
        return self._rk4(x0, h, nsteps, max(nsteps, 1))[0]

    def flow_record(self, x0: np.ndarray, h: float, nsteps: int,
                    every: int) -> np.ndarray:
        return self._rk4(x0, h, nsteps, every)[1]

    def _rk4(self, x0, h, nsteps, every):
        x, traj, status = _compile.rk4_flow(
            self.rhs, *self.lpack, np.asarray(x0, dtype=float).tolist(),
            h, nsteps, every)
        _raise_status(status)
        return x, traj

    def flow_variational(self, x0: np.ndarray, h: float, nsteps: int,
                         fd: float) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(**_QUIET):
            x, phi, status = _compile.rk4_variational(
                self.rhs_block, *self.lpack,
                np.ascontiguousarray(x0, dtype=float), h, nsteps, fd)
        _raise_status(status)
        return x, phi


class FlowDiverged(ArithmeticError):
    pass


def _raise_status(status: int):
    if status == _compile.BLOWUP:
        raise FlowDiverged("trajectory norm exceeded the blow-up guard (1e8)")
    if status == _compile.NONFINITE:
        raise FlowDiverged("trajectory became non-finite")


# -- admissible systems ---------------------------------------------------------

_INVARIANCE_TOL = 1e-12
_SYMMETRISE_CAP = 720


class AdmissibleSystem:
    """Per-input-class component functions over a network.

    Parameters
    ----------
    network : Network
    dims : mapping node type -> state dimension (state-equivalent nodes
        must come out equal; checked).
    components : mapping node id -> component source text or ComponentExpr.
        Exactly one entry per input class; any member may name the class.
    symmetrise : replace every component by its vertex-group average before
        use.  When False, components must already be numerically invariant
        under their vertex group (checked on random samples).
    """

    def __init__(self, network: Network, dims: Mapping[str, int],
                 components: Mapping[int, str | ComponentExpr],
                 symmetrise: bool = False):
        report = validate_network(network, dims)
        if not report.dim_consistent or report.dim_errors:
            raise AdmissibleError("invalid dimensions: " + "; ".join(report.dim_errors))
        self.network = network
        self.dims = dict(dims)
        self.symmetrise = bool(symmetrise)
        self.layout = layout_for(network, dims)

        classes = network.input_partition
        reps = tuple(cls[0] for cls in classes)
        rep_of: dict[int, int] = {}
        for cls in classes:
            for c in cls:
                rep_of[c] = cls[0]
        self._rep_of = rep_of
        self.class_reps = reps

        named = {}
        for key, comp in components.items():
            key = int(key)
            if key not in rep_of:
                raise AdmissibleError(f"component key {key} is not a node id")
            rep = rep_of[key]
            if rep in named:
                raise AdmissibleError(
                    f"two components given for input class of node {rep}")
            named[rep] = comp
        missing = [r for r in reps if r not in named]
        if missing:
            raise AdmissibleError(f"missing components for input classes of nodes {missing}")

        self.components: dict[int, ComponentExpr] = {}
        for rep in reps:
            arity = self.arity_of(rep)
            comp = named[rep]
            if isinstance(comp, str):
                comp = parse_component(comp, arity)
            elif comp.arity != arity:
                raise AdmissibleError(
                    f"component for node {rep} has arity {comp.arity}, "
                    f"class requires {arity}")
            self.components[rep] = comp

        if self.symmetrise:
            for rep in reps:
                order = vertex_group(network, rep).order
                if order > _SYMMETRISE_CAP:
                    raise AdmissibleError(
                        f"vertex group of node {rep} has order {order} > "
                        f"{_SYMMETRISE_CAP}; declare an invariant component "
                        f"directly instead of symmetrising")
        else:
            self._check_invariance()

    # -- structure ---------------------------------------------------------

    def arity_of(self, c: int) -> Arity:
        net = self.network
        self_dim = self.dims[net.node_type(c)]
        input_dims = tuple(self.dims[net.node_type(t)] for t in net.input_tails(c))
        return Arity(self_dim, input_dims)

    def class_rep(self, c: int) -> int:
        return self._rep_of[c]

    def component_for(self, c: int) -> ComponentExpr:
        return self.components[self._rep_of[c]]

    def node_dim(self, c: int) -> int:
        return self.dims[self.network.node_type(c)]

    def _check_invariance(self, samples: int = 4):
        rng = np.random.default_rng(1234)
        for rep in self.class_reps:
            group = vertex_group(self.network, rep)
            if group.order == 1:
                continue
            # groups above the cap are checked on their first 720 elements
            elements = list(itertools.islice(group.iter_elements(),
                                             _SYMMETRISE_CAP))
            arity = self.arity_of(rep)
            comp = self.components[rep]
            for _ in range(samples):
                x = rng.standard_normal(arity.self_dim)
                inputs = [rng.standard_normal(d) for d in arity.input_dims]
                base = np.asarray(comp.evaluate(x, inputs))
                scale = max(1.0, float(np.max(np.abs(base))))
                for perm in elements:
                    permuted = [inputs[perm[j]] for j in range(len(inputs))]
                    other = np.asarray(comp.evaluate(x, permuted))
                    if np.max(np.abs(other - base)) > _INVARIANCE_TOL * scale:
                        raise AdmissibleError(
                            f"component of node {rep} is not invariant under its "
                            f"vertex group; set symmetrise=True or fix the "
                            f"expression")

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def compiled(self) -> CompiledField:
        source, ns = _rhs_source(self)
        return CompiledField(_compile.compile_rhs(source, ns),
                             _compile.compile_rhs(source, ns, block=True),
                             _compile.empty_pack(), self.layout)

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        """Full vector field at x; aborts naming the offending subexpression
        on any non-finite intermediate."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.layout.total_dim,):
            raise AdmissibleError(
                f"state has dimension {x.shape}, system expects "
                f"({self.layout.total_dim},)")
        with np.errstate(**_QUIET):
            try:
                out = self.compiled.eval(x)
            except (ArithmeticError, ValueError):
                out = None
            if out is None or not np.all(np.isfinite(out)):
                self._evaluate_slow(x)  # raises with attribution
                raise AdmissibleError("non-finite value with no attributable source")
        return out

    def _evaluate_slow(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.layout.total_dim)
        for c in self.network.node_ids:
            inputs = [x[self.layout.slice_of(t)] for t in self.network.input_tails(c)]
            try:
                out[self.layout.slice_of(c)] = self.component_value(
                    c, x[self.layout.slice_of(c)], inputs)
            except EvaluationError as exc:
                raise AdmissibleError(
                    f"node {c}: non-finite value in {exc.subexpr!r}") from None
        return out

    def flow_args(self):
        return self.compiled

    def component_value(self, c: int, self_val: Sequence[float],
                        inputs: Sequence[Sequence[float]]) -> np.ndarray:
        """Value of node c's component at explicit arguments, honouring the
        symmetrise flag."""
        fn = self.component_for(c).evaluate
        if self.symmetrise:
            fn = symmetrise_component(fn, vertex_group(self.network, self.class_rep(c)))
        return np.asarray(fn(np.asarray(self_val, dtype=float), list(inputs)),
                          dtype=float)

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dims": dict(self.dims),
            "components": {str(rep): comp.to_source()
                           for rep, comp in self.components.items()},
            "symmetrise": self.symmetrise,
        }


def system_from_json(net: Network, data: dict | str) -> AdmissibleSystem:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        dims = {str(k): int(v) for k, v in data["dims"].items()}
        comps = {int(k): str(v) for k, v in data["components"].items()}
        symmetrise = bool(data.get("symmetrise", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise AdmissibleError(f"malformed system JSON: {exc}") from exc
    return AdmissibleSystem(net, dims, comps, symmetrise=symmetrise)


# -- rhs code generation -----------------------------------------------------------

def _rhs_source(sys: AdmissibleSystem) -> tuple[str, dict]:
    net = sys.network
    lay = sys.layout
    lines = ["def rhs(s, out):"]
    ns: dict = {}
    for c in net.node_ids:
        rep = sys.class_rep(c)
        comp = sys.components[rep]
        off_c = lay.offset_of(c)
        k = lay.dim_of(c)
        tails = net.input_tails(c)
        tail_offs = [lay.offset_of(t) for t in tails]
        lines.append(f"    # node {c} (component of node {rep})")

        def xref(i, off_c=off_c):
            return f"s[{off_c + i - 1}]"

        group = vertex_group(net, rep)
        if not sys.symmetrise or group.order == 1:
            def uref(slot, i, tail_offs=tail_offs):
                return f"s[{tail_offs[slot - 1] + i - 1}]"
            for t, code in enumerate(comp.codegen(xref, uref)):
                lines.append(f"    out[{off_c + t}] = {code}")
        elif group.order <= 24:
            perms = group.elements()
            pieces: list[list[str]] = [[] for _ in range(k)]
            for perm in perms:
                def uref(slot, i, tail_offs=tail_offs, perm=perm):
                    return f"s[{tail_offs[perm[slot - 1]] + i - 1}]"
                for t, code in enumerate(comp.codegen(xref, uref)):
                    pieces[t].append(code)
            for t in range(k):
                joined = " + ".join(pieces[t])
                lines.append(f"    out[{off_c + t}] = ({joined}) / {float(group.order)!r}")
        else:
            perms = group.elements(cap=_SYMMETRISE_CAP)
            arity = sys.arity_of(rep)
            gather = []
            for perm in perms:
                row = []
                for slot in range(len(tails)):
                    src = perm[slot]
                    row.extend(tail_offs[src] + i for i in range(arity.input_dims[src]))
                gather.append(row)
            gname = f"_G{c}"
            ns[gname] = np.asarray(gather, dtype=np.int64)
            slot_starts = []
            acc = 0
            for d in arity.input_dims:
                slot_starts.append(acc)
                acc += d

            def uref(slot, i, slot_starts=slot_starts, gname=gname, c=c):
                return f"s[{gname}[_p{c}, {slot_starts[slot - 1] + i - 1}]]"
            for t in range(k):
                lines.append(f"    _acc{c}_{t} = 0.0")
            lines.append(f"    for _p{c} in range({len(perms)}):")
            for t, code in enumerate(comp.codegen(xref, uref)):
                lines.append(f"        _acc{c}_{t} += {code}")
            for t in range(k):
                lines.append(f"    out[{off_c + t}] = _acc{c}_{t} / {float(len(perms))!r}")
    return "\n".join(lines) + "\n", ns


# -- invariance probe --------------------------------------------------------------

def invariance_residual(sys: AdmissibleSystem, c: int,
                        perm: Sequence[int], x: np.ndarray) -> float:
    """|f_c with inputs permuted by perm - f_c| at state x."""
    lay = sys.layout
    xc = x[lay.slice_of(c)]
    inputs = [x[lay.slice_of(t)] for t in sys.network.input_tails(c)]
    base = sys.component_value(c, xc, inputs)
    permuted = sys.component_value(c, xc, [inputs[perm[j]] for j in range(len(inputs))])
    return float(np.max(np.abs(permuted - base))) if len(base) else 0.0


# -- symmetrisation of callables ------------------------------------------------------

def symmetrise_component(fn: Callable, group: VertexGroup,
                         cap: int = _SYMMETRISE_CAP) -> Callable:
    """Average fn(self_state, inputs) over all pullback permutations of the
    input tuple.  The result is exactly invariant under the group action and
    its sup norm never exceeds fn's."""
    elements = group.elements(cap=cap)

    def averaged(x, inputs):
        inputs = list(inputs)
        acc = None
        for perm in elements:
            v = np.asarray(fn(x, [inputs[perm[j]] for j in range(len(inputs))]),
                           dtype=float)
            acc = v if acc is None else acc + v
        return acc / len(elements)

    return averaged


# -- packed additive perturbations ----------------------------------------------------

def arg_permutations(group: VertexGroup, arity: Arity) -> list[tuple[int, ...]]:
    """Slot permutations of the vertex group as index permutations of the
    flat argument vector (self coordinates fixed)."""
    starts = []
    acc = arity.self_dim
    for d in arity.input_dims:
        starts.append(acc)
        acc += d
    out = []
    for perm in group.elements(cap=_SYMMETRISE_CAP):
        idx = list(range(arity.self_dim))
        for slot in range(len(arity.input_dims)):
            src = perm[slot]
            idx.extend(starts[src] + i for i in range(arity.input_dims[src]))
        out.append(tuple(idx))
    return out


@dataclass(frozen=True)
class Perturbation:
    """Additive admissible field: a symmetrised bump on one input class.

    The field's component for the class of `class_rep` is
    (1 - prod over group translates of (1 - plateau(|y - z|^2/delta^2))) * w
    and every other class gets the zero component.  `scale` multiplies w;
    it is used to calibrate the unit C1 norm.
    """

    class_rep: int
    z: np.ndarray
    delta: float
    w: np.ndarray
    scale: float = 1.0
    label: str = "bump"

    def with_scale(self, scale: float) -> "Perturbation":
        return replace(self, scale=scale)

    def component_value(self, sys: AdmissibleSystem, y: np.ndarray) -> np.ndarray:
        """Value of the class component at flat argument vector y."""
        group = vertex_group(sys.network, self.class_rep)
        perms = arg_permutations(group, sys.arity_of(self.class_rep))
        inv_d2 = 1.0 / (self.delta * self.delta)
        rest = 1.0
        y = np.asarray(y, dtype=float)
        for p in perms:
            s = float(np.sum((y[np.asarray(p)] - self.z) ** 2)) * inv_d2
            rest *= 1.0 - _compile._psi(s)
        return (1.0 - rest) * self.scale * self.w


def pack_perturbations(sys: AdmissibleSystem, perts: Sequence[Perturbation],
                       epsilon: float) -> tuple:
    """Pack bump data for the flow drivers; epsilon*scale is folded into w."""
    if not perts:
        return _compile.empty_pack()
    lay = sys.layout
    net = sys.network
    rows_gather: list[list[int]] = []
    row_start = [0]
    out_off: list[int] = []
    out_dim: list[int] = []
    arg_len: list[int] = []
    perm_start = [0]
    perm_rows: list[tuple[int, ...]] = []
    zs: list[np.ndarray] = []
    inv_d2: list[float] = []
    ws: list[np.ndarray] = []
    for pert in perts:
        rep = sys.class_rep(pert.class_rep)
        arity = sys.arity_of(rep)
        L = arity.self_dim + sum(arity.input_dims)
        if np.asarray(pert.z).shape != (L,):
            raise AdmissibleError(
                f"perturbation centre has length {np.asarray(pert.z).shape}, "
                f"class of node {rep} expects {L}")
        if np.asarray(pert.w).shape != (arity.self_dim,):
            raise AdmissibleError("perturbation value has wrong dimension")
        members = net.input_class_of(rep)
        for c in members:
            row = list(range(lay.offset_of(c), lay.offset_of(c) + lay.dim_of(c)))
            for t in net.input_tails(c):
                row.extend(range(lay.offset_of(t), lay.offset_of(t) + lay.dim_of(t)))
            rows_gather.append(row)
            out_off.append(lay.offset_of(c))
        row_start.append(len(rows_gather))
        group = vertex_group(net, rep)
        perms = arg_permutations(group, arity)
        perm_rows.extend(perms)
        perm_start.append(len(perm_rows))
        arg_len.append(L)
        out_dim.append(arity.self_dim)
        zs.append(np.asarray(pert.z, dtype=float))
        inv_d2.append(1.0 / (pert.delta * pert.delta))
        ws.append(epsilon * pert.scale * np.asarray(pert.w, dtype=float))

    Lmax = max(arg_len)
    Kmax = max(out_dim)
    gather = np.zeros((len(rows_gather), Lmax), dtype=np.int64)
    for i, row in enumerate(rows_gather):
        gather[i, :len(row)] = row
    perms_arr = np.zeros((len(perm_rows), Lmax), dtype=np.int64)
    for i, p in enumerate(perm_rows):
        perms_arr[i, :len(p)] = p
    z_arr = np.zeros((len(perts), Lmax))
    w_arr = np.zeros((len(perts), Kmax))
    for i in range(len(perts)):
        z_arr[i, :len(zs[i])] = zs[i]
        w_arr[i, :len(ws[i])] = ws[i]
    return (np.asarray(row_start, dtype=np.int64), gather,
            np.asarray(arg_len, dtype=np.int64),
            np.asarray(out_off, dtype=np.int64),
            np.asarray(out_dim, dtype=np.int64),
            np.asarray(perm_start, dtype=np.int64), perms_arr,
            z_arr, np.asarray(inv_d2, dtype=float), w_arr)


class PerturbedSystem:
    """Base system plus epsilon times a list of additive bump fields.

    Reuses the base compilation; only the packed arrays change with
    epsilon, so continuation across an epsilon schedule is cheap.
    """

    def __init__(self, base: AdmissibleSystem, perturbations: Sequence[Perturbation],
                 epsilon: float):
        self.base = base
        self.perturbations = tuple(perturbations)
        self.epsilon = float(epsilon)
        self.network = base.network
        self.layout = base.layout
        self._pack = pack_perturbations(base, self.perturbations, self.epsilon)

    @cached_property
    def compiled(self) -> CompiledField:
        """The base compilation with this system's pack, built once."""
        base = self.base.compiled
        return CompiledField(base.rhs, base.rhs_block, self._pack, self.layout)

    def flow_args(self) -> CompiledField:
        return self.compiled

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.base.evaluate(x).tolist()
        _compile._apply_bumps(x.tolist(), out, *self.compiled.lpack)
        return np.array(out)

    def component_value(self, c: int, self_val: Sequence[float],
                        inputs: Sequence[Sequence[float]]) -> np.ndarray:
        val = self.base.component_value(c, self_val, inputs)
        rep = self.base.class_rep(c)
        y = np.concatenate([np.asarray(self_val, dtype=float)]
                           + [np.asarray(v, dtype=float) for v in inputs])
        for pert in self.perturbations:
            if self.base.class_rep(pert.class_rep) == rep:
                val = val + self.epsilon * pert.component_value(self.base, y)
        return val


# -- C1 norm estimation -----------------------------------------------------------------

def c1_norm_estimate(fn: Callable, points: Sequence[Sequence[float]],
                     out_dims: Sequence[int],
                     in_dims: Sequence[int] | None = None) -> float:
    """Grid estimate of max(|fn|, |Dfn|) in the per-node max-of-Euclidean
    state norm.

    The value part is the max over output blocks of the Euclidean norm;
    the derivative part bounds the induced operator norm by the max over
    output blocks of the summed spectral norms of the Jacobian blocks
    (computed by central differences, step 1e-6 * max(1, |x|)).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out_dims = tuple(out_dims)
    in_dims = tuple(in_dims) if in_dims is not None else out_dims
    n_in = sum(in_dims)
    if points.shape[1] != n_in:
        raise AdmissibleError(f"grid points have dimension {points.shape[1]}, "
                              f"expected {n_in}")
    out_slices = []
    acc = 0
    for d in out_dims:
        out_slices.append(slice(acc, acc + d))
        acc += d
    in_slices = []
    acc = 0
    for d in in_dims:
        in_slices.append(slice(acc, acc + d))
        acc += d

    best = 0.0
    for x in points:
        fx = np.asarray(fn(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise AdmissibleError("non-finite value on the estimation grid")
        val = max((float(np.linalg.norm(fx[s])) for s in out_slices), default=0.0)
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        jac = np.empty((len(fx), n_in))
        for j in range(n_in):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            jac[:, j] = (np.asarray(fn(xp), dtype=float)
                         - np.asarray(fn(xm), dtype=float)) / (2 * h)
        if not np.all(np.isfinite(jac)):
            raise AdmissibleError("non-finite derivative on the estimation grid")
        dnorm = 0.0
        for so in out_slices:
            row = sum(float(np.linalg.norm(jac[so, si], 2)) for si in in_slices)
            dnorm = max(dnorm, row)
        best = max(best, val, dnorm)
    return best


def component_c1_estimate(sys, class_rep: int,
                          points: Sequence[Sequence[float]]) -> float:
    """C1 estimate of one class component over free arguments
    (x_c, u_1, ..., u_nu) rather than along the composed field.  This is
    the quantity the lift construction preserves: lifted classes alias the
    same component functions and the remaining classes are zero."""
    rep = sys.base.class_rep(class_rep) if isinstance(sys, PerturbedSystem) \
        else sys.class_rep(class_rep)
    base = sys.base if isinstance(sys, PerturbedSystem) else sys
    arity = base.arity_of(rep)
    dims = (arity.self_dim,) + arity.input_dims
    splits = np.cumsum(dims)[:-1]

    def fn(y):
        parts = np.split(np.asarray(y, dtype=float), splits)
        return sys.component_value(rep, parts[0], parts[1:])

    return c1_norm_estimate(fn, points, out_dims=(arity.self_dim,), in_dims=dims)


# -- polydiagonals -------------------------------------------------------------------

def polydiagonal_point(layout: StateLayout, colour_map: Mapping[int, int],
                       values: Mapping[int, Sequence[float]]) -> np.ndarray:
    """State with node c set to values[colour of c]."""
    return layout.pack({c: values[colour_map[c]] for c in layout.node_ids})


def random_polydiagonal_point(layout: StateLayout, colour_map: Mapping[int, int],
                              rng: np.random.Generator,
                              scale: float = 1.0) -> np.ndarray:
    dims: dict[int, int] = {}
    for c in layout.node_ids:
        col = colour_map[c]
        d = layout.dim_of(c)
        if dims.setdefault(col, d) != d:
            raise AdmissibleError("colour classes mix node dimensions")
    values = {col: scale * rng.standard_normal(d) for col, d in dims.items()}
    return polydiagonal_point(layout, colour_map, values)


def project_polydiagonal(layout: StateLayout, colour_map: Mapping[int, int],
                         x: np.ndarray) -> np.ndarray:
    """Replace each node block by its colour-class mean."""
    x = np.asarray(x, dtype=float)
    groups: dict[int, list[int]] = {}
    for c in layout.node_ids:
        groups.setdefault(colour_map[c], []).append(c)
    out = x.copy()
    for nodes in groups.values():
        mean = np.mean([x[layout.slice_of(c)] for c in nodes], axis=0)
        for c in nodes:
            out[layout.slice_of(c)] = mean
    return out


def polydiagonal_distance(layout: StateLayout, colour_map: Mapping[int, int],
                          x: np.ndarray) -> float:
    """Max over same-coloured pairs of the Euclidean block distance."""
    x = np.asarray(x, dtype=float)
    groups: dict[int, list[int]] = {}
    for c in layout.node_ids:
        groups.setdefault(colour_map[c], []).append(c)
    worst = 0.0
    for nodes in groups.values():
        for a, b in itertools.combinations(nodes, 2):
            d = float(np.linalg.norm(x[layout.slice_of(a)] - x[layout.slice_of(b)]))
            worst = max(worst, d)
    return worst
