"""Numerical dynamics: integration, periodic orbits, Floquet multipliers,
synchrony/phase/steadiness detection on trajectories.

Orbit location is single shooting: Newton iteration on (anchor, period)
with a fixed Poincare-section phase condition.  Monodromy matrices come
from integrating the variational equation along the orbit (the field's
Jacobian taken by central differences over one block evaluation of the
rhs per RK4 stage), which keeps the small multipliers accurate enough for
tight Floquet checks; differencing the time-T flow map directly is
available as a fallback.  An orbit's monodromy and multipliers are lazy:
the variational pass runs on their first read, so orbits whose Floquet
data nobody reads (continuation members, say) never pay for it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .colouring import Colouring
from .network import Network, transitive_components

ORBIT_SAMPLES = 1024
PHASE_GRID = 512


class OrbitError(RuntimeError):
    pass


class NoConvergence(OrbitError):
    pass


class CollapseToEquilibrium(OrbitError):
    pass


# -- trajectories -------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (len(times), state dim)
    step: float
    error_estimate: float = 0.0


def _steps_for(span: float, h: float) -> tuple[int, float]:
    nsteps = max(16, int(math.ceil(span / h)))
    return nsteps, span / nsteps


def integrate(sys, x0: Sequence[float], t_span: float, h: float = 1e-3,
              record_every: int = 1) -> Trajectory:
    """Classical fixed-step RK4 from x0 over [0, t_span].

    The local error is monitored by a step-halving (Richardson) estimate at
    a handful of recorded states and reported in the metadata.  Blow-up
    (norm above 1e8) and non-finite states raise.
    """
    if t_span <= 0:
        raise ValueError("t_span must be positive")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state is not finite")
    f = sys.flow_args()
    nsteps, h_eff = _steps_for(t_span, h)
    rec = max(1, min(record_every, nsteps))
    while nsteps % rec:
        rec -= 1
    states = f.flow_record(x0, h_eff, nsteps, rec)
    times = np.arange(states.shape[0]) * (h_eff * rec)

    est = 0.0
    for i in np.linspace(0, states.shape[0] - 1, min(8, states.shape[0])).astype(int):
        x = states[i]
        full = f.flow(x, h_eff, 1)
        halved = f.flow(x, h_eff / 2, 2)
        est = max(est, float(np.max(np.abs(full - halved))) / 15.0)
    return Trajectory(times=times, states=states, step=h_eff, error_estimate=est)


def trajectory_to_csv(traj: Trajectory, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(traj.states.shape[1])])
        for t, row in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


# -- periodic orbits --------------------------------------------------------------

@dataclass
class PeriodicOrbit:
    """A located orbit.  monodromy and multipliers are integrated from
    system on first read and cached."""

    anchor: np.ndarray
    period: float
    section_point: np.ndarray
    section_normal: np.ndarray
    times: np.ndarray            # uniform over one period, ORBIT_SAMPLES rows
    samples: np.ndarray
    residual: float
    step: float
    system: object = field(repr=False, compare=False)

    @cached_property
    def monodromy(self) -> np.ndarray:
        """Fundamental matrix over one period, integrated on first read."""
        return monodromy_matrix(self.system, self.anchor, self.period, h=self.step)

    @cached_property
    def multipliers(self) -> np.ndarray:
        """Floquet multipliers, sorted by |mu - 1|."""
        return _sorted_eigvals(self.monodromy)

    @property
    def trivial_multiplier(self) -> complex:
        return complex(self.multipliers[0])

    def spline(self) -> CubicSpline:
        t = np.append(self.times, self.period)
        x = np.vstack([self.samples, self.samples[:1]])
        return CubicSpline(t, x, bc_type="periodic")

    def at(self, t: float | np.ndarray) -> np.ndarray:
        return self.spline()(np.mod(t, self.period))


def monodromy_matrix(sys, anchor: np.ndarray, T: float, h: float = 1e-3,
                     method: str = "variational") -> np.ndarray:
    """Fundamental matrix of the linearised flow over one period."""
    f = sys.flow_args()
    nsteps, h_eff = _steps_for(T, h)
    anchor = np.asarray(anchor, dtype=float)
    scale = max(1.0, float(np.linalg.norm(anchor)))
    fd = 1e-6 * scale
    if method == "variational":
        _, phi = f.flow_variational(anchor, h_eff, nsteps, fd)
        return phi
    if method == "flowmap":
        n = len(anchor)
        phi = np.empty((n, n))
        for j in range(n):
            xp = anchor.copy()
            xp[j] += fd
            xm = anchor.copy()
            xm[j] -= fd
            phi[:, j] = (f.flow(xp, h_eff, nsteps) - f.flow(xm, h_eff, nsteps)) / (2 * fd)
        return phi
    raise ValueError(f"unknown monodromy method {method!r}")


def _sorted_eigvals(phi: np.ndarray) -> np.ndarray:
    mus = np.linalg.eigvals(phi)
    return mus[np.argsort(np.abs(mus - 1.0))]


def floquet(sys, orbit: PeriodicOrbit, h: float | None = None,
            method: str = "variational") -> np.ndarray:
    """Floquet multipliers of the orbit, sorted by |mu - 1| ascending.

    With the default step and method on the orbit's own system these are
    the orbit's cached multipliers; otherwise a fresh pass runs."""
    if h is None and method == "variational" and sys is orbit.system:
        return orbit.multipliers
    phi = monodromy_matrix(sys, orbit.anchor, orbit.period,
                           h=h or orbit.step, method=method)
    return _sorted_eigvals(phi)


def _resample(sys, anchor: np.ndarray, T: float, h: float,
              n: int = ORBIT_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    f = sys.flow_args()
    nsteps, h_eff = _steps_for(T, h)
    raw = f.flow_record(anchor, h_eff, nsteps, 1)
    t_raw = np.arange(raw.shape[0]) * h_eff
    raw[-1] = raw[0]  # close the loop for the periodic spline
    spline = CubicSpline(t_raw, raw, bc_type="periodic")
    times = np.arange(n) * (T / n)
    return times, spline(times)


def _build_orbit(sys, anchor: np.ndarray, T: float, h: float, residual: float,
                 section_point: np.ndarray, section_normal: np.ndarray) -> PeriodicOrbit:
    times, samples = _resample(sys, anchor, T, h)
    return PeriodicOrbit(anchor=np.array(anchor, dtype=float), period=float(T),
                         section_point=np.asarray(section_point, dtype=float),
                         section_normal=np.asarray(section_normal, dtype=float),
                         times=times, samples=samples, residual=float(residual),
                         step=h, system=sys)


def find_periodic_orbit(sys, x_guess: Sequence[float], T_guess: float,
                        h: float = 1e-3, tol: float = 1e-10,
                        max_iter: int = 50,
                        section: tuple[np.ndarray, np.ndarray] | None = None
                        ) -> PeriodicOrbit:
    """Newton shooting for a periodic orbit near (x_guess, T_guess).

    Unknowns are the anchor point and the period; the anchor is pinned to a
    fixed Poincare section (through x_guess, normal to the flow there,
    unless one is supplied).  Converged when the closure residual drops
    below tol.  Raises NoConvergence after max_iter Newton steps and
    CollapseToEquilibrium when the iteration degenerates (stagnant flow or
    vanishing period).
    """
    if T_guess <= 0:
        raise ValueError("T_guess must be positive")
    f = sys.flow_args()
    x = np.asarray(x_guess, dtype=float).copy()
    T = float(T_guess)
    n = len(x)
    fx = f.eval(x)
    speed = float(np.linalg.norm(fx))
    if speed < 1e-9 * (1.0 + float(np.linalg.norm(x))):
        raise CollapseToEquilibrium("initial guess sits at an equilibrium")
    if section is None:
        section_point = x.copy()
        normal = fx / speed
    else:
        section_point = np.asarray(section[0], dtype=float)
        normal = np.asarray(section[1], dtype=float)
        normal = normal / np.linalg.norm(normal)

    def residual(xc, Tc):
        nsteps, h_eff = _steps_for(Tc, h)
        xT = f.flow(xc, h_eff, nsteps)
        res = np.append(xT - xc, normal @ (xc - section_point))
        return res, xT, (nsteps, h_eff)

    try:
        res, xT, grid = residual(x, T)
    except ArithmeticError as exc:
        raise NoConvergence(f"flow from the initial guess diverged: {exc}") from exc
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm < tol:
            return _build_orbit(sys, x, T, h, rnorm, section_point, normal)
        nsteps, h_eff = grid
        fd = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        jac = np.zeros((n + 1, n + 1))
        for j in range(n):
            xj = x.copy()
            xj[j] += fd
            jac[:n, j] = (f.flow(xj, h_eff, nsteps) - xT) / fd
        jac[:n, :n] -= np.eye(n)
        jac[:n, n] = f.eval(xT)
        jac[n, :n] = normal
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -res, rcond=None)[0]

        best = None
        for lam in (1.0, 0.5, 0.25):
            x_try = x + lam * delta[:n]
            T_try = T + lam * delta[n]
            if T_try <= 0:
                continue
            try:
                r_try, xT_try, grid_try = residual(x_try, T_try)
            except ArithmeticError:
                continue
            rn = float(np.max(np.abs(r_try)))
            if best is None or rn < best[0]:
                best = (rn, x_try, T_try, r_try, xT_try, grid_try)
            if rn < rnorm:
                break
        if best is None:
            raise CollapseToEquilibrium("Newton step left the admissible region")
        rnorm, x, T, res, xT, grid = best
        if T < 1e-3 * T_guess:
            raise CollapseToEquilibrium("period collapsed towards zero")
        if float(np.linalg.norm(f.eval(x))) < 1e-9 * (1.0 + float(np.linalg.norm(x))):
            raise CollapseToEquilibrium("iteration stagnated at an equilibrium")
    if rnorm < tol:
        return _build_orbit(sys, x, T, h, rnorm, section_point, normal)
    raise NoConvergence(f"no convergence in {max_iter} iterations "
                        f"(residual {rnorm:.3e})")


def orbit_from_point(sys, x0: Sequence[float], T: float, h: float = 1e-3,
                     tol: float = 1e-6) -> PeriodicOrbit:
    """Wrap a known closed trajectory as an orbit, verifying closure.

    Useful for orbits that cannot be Newton-polished because the monodromy
    is singular (structurally non-hyperbolic systems)."""
    f = sys.flow_args()
    x0 = np.asarray(x0, dtype=float)
    nsteps, h_eff = _steps_for(T, h)
    xT = f.flow(x0, h_eff, nsteps)
    res = float(np.max(np.abs(xT - x0)))
    if res > tol:
        raise OrbitError(f"trajectory does not close over T={T}: defect {res:.3e}")
    fx = f.eval(x0)
    normal = fx / max(np.linalg.norm(fx), 1e-30)
    return _build_orbit(sys, x0, T, h, res, x0, normal)


def orbit_to_json(orbit: PeriodicOrbit) -> dict:
    return {
        "anchor": [float(v) for v in orbit.anchor],
        "period": float(orbit.period),
        "residual": float(orbit.residual),
        "multipliers": [[float(m.real), float(m.imag)] for m in orbit.multipliers],
    }


# -- hyperbolicity ------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    verdict: str                      # hyperbolic | non-hyperbolic | borderline
    multipliers: np.ndarray
    unit_distances: np.ndarray        # ||mu| - 1| per multiplier
    near_one: int                     # count within tol_triv of 1
    quasi_hyperbolic: bool
    structural_obstruction: bool
    warnings: list[str] = field(default_factory=list)


def oscillating_nodes(sys, samples: np.ndarray, tol: float = 1e-7) -> frozenset[int]:
    lay = sys.layout
    out = set()
    scale = max(1.0, float(np.max(np.abs(samples))))
    for c in lay.node_ids:
        block = samples[:, lay.slice_of(c)]
        amp = float(np.max(np.linalg.norm(block - block.mean(axis=0), axis=1)))
        if amp > tol * scale:
            out.add(c)
    return frozenset(out)


def is_hyperbolic(sys, orbit: PeriodicOrbit, net: Network | None = None,
                  tol_triv: float = 1e-5, tol_hyp: float = 1e-3) -> HyperbolicityReport:
    """Multiplier test plus the structural feedforward obstruction.

    Hyperbolic: exactly one multiplier within tol_triv of 1 and every other
    multiplier at distance > tol_hyp from the unit circle.  When the
    network has two or more maximal transitive components and the orbit
    oscillates on at least two of them, hyperbolicity is impossible and a
    structural warning is attached regardless of the numerics.
    """
    mus = orbit.multipliers
    dist_to_one = np.abs(mus - 1.0)
    near = dist_to_one <= tol_triv
    near_count = int(np.sum(near))
    others = mus[~near]
    unit_dist = np.abs(np.abs(mus) - 1.0)
    other_dist = np.abs(np.abs(others) - 1.0)

    warnings: list[str] = []
    if near_count == 1 and np.all(other_dist > tol_hyp):
        verdict = "hyperbolic"
    elif near_count != 1 or np.any(other_dist <= tol_triv):
        verdict = "non-hyperbolic"
    else:
        verdict = "borderline"
    quasi = bool(near_count == 2 and np.all(other_dist > tol_hyp))
    if quasi:
        warnings.append("two unit multipliers with the rest off the circle "
                        "(quasi-hyperbolic: torus of sheared orbits)")

    structural = False
    net = net or getattr(sys, "network", None)
    if net is not None:
        dag = transitive_components(net)
        if len(dag.maximal) >= 2:
            osc = oscillating_nodes(sys, orbit.samples)
            hot = [i for i in dag.maximal if dag.components[i] & osc]
            if len(hot) >= 2:
                structural = True
                warnings.append(
                    f"orbit oscillates on {len(hot)} maximal transitive "
                    f"components; hyperbolicity is impossible for this network")
    return HyperbolicityReport(verdict=verdict, multipliers=mus,
                               unit_distances=unit_dist, near_one=near_count,
                               quasi_hyperbolic=quasi,
                               structural_obstruction=structural,
                               warnings=warnings)


# -- synchrony and steadiness detection ------------------------------------------------

def _traj_states(traj) -> np.ndarray:
    if isinstance(traj, Trajectory):
        return traj.states
    return np.atleast_2d(np.asarray(traj, dtype=float))


def detect_synchrony(sys, traj, tol: float = 1e-8) -> Colouring:
    """Colouring by sup-norm coincidence of node trajectories.

    Only state-equivalent nodes are compared.  The tolerance is relative to
    the pair's oscillation amplitude; near-steady pairs fall back to an
    absolute threshold of the same magnitude.
    """
    states = _traj_states(traj)
    lay = sys.layout
    net = sys.network
    blocks = {c: states[:, lay.slice_of(c)] for c in lay.node_ids}
    amp = {c: float(np.max(np.linalg.norm(b - b.mean(axis=0), axis=1)))
           for c, b in blocks.items()}

    parent = {c: c for c in lay.node_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cls in net.state_partition:
        for i, c in enumerate(cls):
            for d in cls[i + 1:]:
                if lay.dim_of(c) != lay.dim_of(d):
                    continue
                scale = max(amp[c], amp[d])
                threshold = tol * scale if scale > 1e-8 else tol
                gap = float(np.max(np.linalg.norm(blocks[c] - blocks[d], axis=1)))
                if gap < threshold:
                    rc, rd = find(c), find(d)
                    if rc != rd:
                        parent[max(rc, rd)] = min(rc, rd)
    return Colouring.from_map({c: find(c) for c in lay.node_ids})


def detect_steady_nodes(sys, traj, tol: float = 1e-8) -> frozenset[int]:
    """Nodes whose amplitude over the trajectory stays below tol (absolute)."""
    states = _traj_states(traj)
    lay = sys.layout
    out = set()
    for c in lay.node_ids:
        block = states[:, lay.slice_of(c)]
        amp = float(np.max(np.linalg.norm(block - block.mean(axis=0), axis=1)))
        if amp < tol:
            out.add(c)
    return frozenset(out)


def upstream_closure(net: Network, nodes: Iterable[int]) -> frozenset[int]:
    """All nodes with a directed path into the given set (set included)."""
    pred: dict[int, set[int]] = {c: set() for c in net.node_ids}
    for a in net.arrows:
        pred[a.head].add(a.tail)
    seen = set()
    stack = [c for c in nodes]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        stack.extend(pred[c] - seen)
    return frozenset(seen)


# -- phase patterns -----------------------------------------------------------------

@dataclass(frozen=True)
class PairShifts:
    full_circle: bool
    shifts: tuple[tuple[float, float], ...]  # (theta, residual)

    def contains(self, theta: float, resolution: float = 2.0 / PHASE_GRID) -> bool:
        if self.full_circle:
            return True
        theta = theta % 1.0
        return any(min(abs(t - theta), 1.0 - abs(t - theta)) <= resolution
                   for t, _ in self.shifts)

    def thetas(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.shifts)


@dataclass
class PhasePattern:
    period: float
    pairs: dict[tuple[int, int], PairShifts]

    def shifts(self, c: int, d: int) -> PairShifts:
        return self.pairs[(c, d)]


def detect_phase(sys, orbit: PeriodicOrbit, tol: float = 1e-6,
                 steady_tol: float = 1e-8) -> PhasePattern:
    """Detected phase shifts theta with x_c(t) = x_d(t + theta*T).

    Scans PHASE_GRID uniform shifts of the resampled period per ordered
    pair of state-equivalent nodes, then refines candidate minima by
    golden-section on the cubic interpolant.  Steady nodes are related by
    every shift, reported with the full-circle flag.
    """
    lay = sys.layout
    net = sys.network
    T = orbit.period
    stride = max(1, orbit.samples.shape[0] // PHASE_GRID)
    Xg = orbit.samples[::stride]
    grid = Xg.shape[0]
    spline = orbit.spline()
    t_grid = orbit.times[::stride]

    blocks = {c: Xg[:, lay.slice_of(c)] for c in lay.node_ids}
    amp = {c: float(np.max(np.linalg.norm(b - b.mean(axis=0), axis=1)))
           for c, b in blocks.items()}
    steady = {c for c in lay.node_ids if amp[c] < steady_tol}

    pairs: dict[tuple[int, int], PairShifts] = {}
    for cls in net.state_partition:
        for c in cls:
            for d in cls:
                if lay.dim_of(c) != lay.dim_of(d):
                    continue
                if c in steady and d in steady:
                    same = float(np.linalg.norm(
                        blocks[c].mean(axis=0) - blocks[d].mean(axis=0)))
                    pairs[(c, d)] = PairShifts(full_circle=same < max(tol, steady_tol),
                                               shifts=())
                    continue
                if (c in steady) != (d in steady):
                    pairs[(c, d)] = PairShifts(full_circle=False, shifts=())
                    continue
                scale = max(amp[c], amp[d])
                D = np.empty(grid)
                bc, bd = blocks[c], blocks[d]
                for s in range(grid):
                    D[s] = np.max(np.linalg.norm(bc - np.roll(bd, -s, axis=0), axis=1))
                accept = tol * scale
                coarse = max(accept, scale * 16.0 / grid)

                def resid(theta):
                    shifted = spline(np.mod(t_grid + theta * T, T))[:, lay.slice_of(d)]
                    return float(np.max(np.linalg.norm(bc - shifted, axis=1)))

                found: list[tuple[float, float]] = []
                for s in range(grid):
                    if D[s] > coarse:
                        continue
                    if D[s] <= D[(s - 1) % grid] and D[s] <= D[(s + 1) % grid]:
                        lo, hi = (s - 1) / grid, (s + 1) / grid
                        a, b = lo, hi
                        for _ in range(48):
                            m1 = a + 0.382 * (b - a)
                            m2 = a + 0.618 * (b - a)
                            if resid(m1) <= resid(m2):
                                b = m2
                            else:
                                a = m1
                        theta = 0.5 * (a + b) % 1.0
                        if 1.0 - theta < 0.5 / grid:
                            theta = 0.0
                        r = resid(theta)
                        if r < accept:
                            if not any(min(abs(t0 - theta), 1 - abs(t0 - theta))
                                       < 1.0 / grid for t0, _ in found):
                                found.append((theta, r))
                pairs[(c, d)] = PairShifts(full_circle=False,
                                           shifts=tuple(sorted(found)))
    return PhasePattern(period=T, pairs=pairs)
