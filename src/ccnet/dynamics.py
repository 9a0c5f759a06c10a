"""Numerical dynamics: integration, periodic orbits, Floquet multipliers,
synchrony/phase/steadiness detection on trajectories.

Orbit location is single shooting: Newton iteration on (anchor, period)
with a fixed Poincare-section phase condition.  Monodromy matrices come
from integrating the variational equation along the orbit (the field's
Jacobian taken by central differences over one block evaluation of the
rhs per RK4 stage), which keeps the small multipliers accurate enough for
tight Floquet checks.  An orbit's monodromy and multipliers are lazy:
the variational pass runs on their first read, so orbits whose Floquet
data nobody reads (continuation members, say) never pay for it.  An
orbit is the trigonometric interpolant of its RK4 grid (Trefethen,
Spectral Methods in MATLAB, ch. 3), held as ORBIT_SAMPLES uniform samples
and read between them by rotating their Fourier modes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .colouring import Colouring
from .network import Network, merge_pairs, transitive_components

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
    f = sys.compiled
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
    system on first read and cached.  samples lie on the trigonometric
    interpolant of the RK4 grid, which shifted() reads between them."""

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

    @cached_property
    def _modes(self) -> np.ndarray:
        return np.fft.rfft(self.samples, axis=0)

    def shifted(self, theta: float, cols: slice = slice(None)) -> np.ndarray:
        """Columns cols of the orbit at times + theta*period: mode k of the
        samples rotated by exp(2 pi i k theta).  irfft keeps the Nyquist
        mode's real part, i.e. splits it evenly between +-m/2."""
        m = self.samples.shape[0]
        turns = theta * np.arange(m // 2 + 1) % 1.0  # exact for whole-sample shifts
        rot = np.exp(2j * np.pi * turns)
        return np.fft.irfft(self._modes[:, cols] * rot[:, None], n=m, axis=0)


def monodromy_matrix(sys, anchor: np.ndarray, T: float,
                     h: float = 1e-3) -> np.ndarray:
    """Fundamental matrix of the linearised flow over one period, by the
    variational pass."""
    nsteps, h_eff = _steps_for(T, h)
    anchor = np.asarray(anchor, dtype=float)
    fd = 1e-6 * max(1.0, float(np.linalg.norm(anchor)))
    return sys.compiled.flow_variational(anchor, h_eff, nsteps, fd)[1]


def _sorted_eigvals(phi: np.ndarray) -> np.ndarray:
    mus = np.linalg.eigvals(phi)
    # stable: a conjugate pair tied in |mu - 1| keeps LAPACK's +imag first
    return mus[np.argsort(np.abs(mus - 1.0), kind="stable")]


def floquet(sys, orbit: PeriodicOrbit, h: float | None = None) -> np.ndarray:
    """Floquet multipliers of the orbit, sorted by |mu - 1| ascending.

    With the default step on the orbit's own system these are the orbit's
    cached multipliers; otherwise a fresh pass runs."""
    if h is None and sys is orbit.system:
        return orbit.multipliers
    return _sorted_eigvals(monodromy_matrix(sys, orbit.anchor, orbit.period,
                                            h=h or orbit.step))


def _trig_resample(x: np.ndarray, n: int) -> np.ndarray:
    """The trigonometric interpolant of m uniform periodic samples x (rows)
    at n uniform times, as PeriodicOrbit.shifted reads it: modes fold
    modulo n (exact for n < m); the real part splits an even m's Nyquist
    mode evenly between +-m/2."""
    m = x.shape[0]
    k = np.fft.fftfreq(m, 1.0 / m).astype(int)
    folded = np.zeros((n,) + x.shape[1:], dtype=complex)
    np.add.at(folded, k % n, np.fft.fft(x, axis=0))
    return np.fft.ifft(folded, axis=0).real * (n / m)


def _build_orbit(sys, anchor: np.ndarray, T: float, h: float, residual: float,
                 section_point: np.ndarray, section_normal: np.ndarray) -> PeriodicOrbit:
    nsteps, h_eff = _steps_for(T, h)
    grid = sys.compiled.flow_record(anchor, h_eff, nsteps, 1)[:-1]
    times = np.arange(ORBIT_SAMPLES) * (T / ORBIT_SAMPLES)
    samples = _trig_resample(grid, ORBIT_SAMPLES)
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
    f = sys.compiled
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
    f = sys.compiled
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


def node_amplitude(block: np.ndarray) -> float:
    """Largest Euclidean distance of a node's rows (times) from their mean."""
    return float(np.max(np.linalg.norm(block - block.mean(axis=0), axis=1)))


def oscillating_nodes(sys, samples: np.ndarray, tol: float = 1e-7) -> frozenset[int]:
    lay = sys.layout
    scale = max(1.0, float(np.max(np.abs(samples))))
    return frozenset(c for c in lay.node_ids
                     if node_amplitude(samples[:, lay.slice_of(c)]) > tol * scale)


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
    amp = {c: node_amplitude(b) for c, b in blocks.items()}

    pairs = []
    for cls in net.state_partition:
        for i, c in enumerate(cls):
            for d in cls[i + 1:]:
                if lay.dim_of(c) != lay.dim_of(d):
                    continue
                scale = max(amp[c], amp[d])
                threshold = tol * scale if scale > 1e-8 else tol
                gap = float(np.max(np.linalg.norm(blocks[c] - blocks[d], axis=1)))
                if gap < threshold:
                    pairs.append((c, d))
    return Colouring.from_parts(lay.node_ids, merge_pairs(lay.node_ids, pairs))


def detect_steady_nodes(sys, traj, tol: float = 1e-8) -> frozenset[int]:
    """Nodes whose amplitude over the trajectory stays below tol (absolute)."""
    states = _traj_states(traj)
    lay = sys.layout
    return frozenset(c for c in lay.node_ids
                     if node_amplitude(states[:, lay.slice_of(c)]) < tol)


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


def _spectrum(block: np.ndarray):
    """Column means, rFFT of the centred rows and their sum of squares."""
    mean = block.mean(axis=0)
    centred = block - mean
    return mean, np.fft.rfft(centred, axis=0), float(np.sum(centred * centred))


def _shift_mean_squares(spec_c, spec_d, grid: int):
    """Mean of |bc[t] - bd[t + s]|^2 over the rows t at every cyclic shift
    s, by the correlation theorem on centred blocks (so no offset cancels),
    and a margin that bounds its rounding."""
    (mc, fc, qc), (md, fd, qd) = spec_c, spec_d
    total = float(np.sum((mc - md) ** 2)) + (qc + qd) / grid
    cross = np.fft.irfft(np.sum(np.conj(fc) * fd, axis=1), n=grid)
    return total - 2.0 * cross / grid, 1e-12 * total


def detect_phase(sys, orbit: PeriodicOrbit, tol: float = 1e-6,
                 steady_tol: float = 1e-8) -> PhasePattern:
    """Detected phase shifts theta with x_c(t) = x_d(t + theta*T).

    Per ordered pair of state-equivalent nodes, candidates are the local
    minima of the sup distance D[s] <= coarse over PHASE_GRID uniform
    shifts.  One FFT cross-correlation bounds D at every shift (RMS <=
    sup); D[s] is computed exactly only where the bound allows a
    candidate.  Candidates are refined by golden-section on the orbit's
    trigonometric interpolant, reading node d's columns only.  Steady
    nodes are related by every shift, reported with the full-circle flag.
    """
    lay = sys.layout
    net = sys.network
    T = orbit.period
    stride = max(1, orbit.samples.shape[0] // PHASE_GRID)
    Xg = orbit.samples[::stride]
    grid = Xg.shape[0]

    blocks = {c: Xg[:, lay.slice_of(c)] for c in lay.node_ids}
    amp = {c: node_amplitude(b) for c, b in blocks.items()}
    steady = {c for c in lay.node_ids if amp[c] < steady_tol}
    spectra = {c: _spectrum(b) for c, b in blocks.items()}

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
                bc, bd = blocks[c], blocks[d]
                accept = tol * scale
                coarse = max(accept, scale * 16.0 / grid)
                # RMS <= sup, so ms[s] > coarse^2 + margin gives D[s] > coarse:
                # no candidate, and D[s] = inf decides a neighbour's local-
                # minimum test as the true D[s] > coarse >= D[neighbour] would.
                # The margin is over 100x the FFT's eps * log2(grid) rounding.
                ms, margin = _shift_mean_squares(spectra[c], spectra[d], grid)
                D = np.full(grid, np.inf)
                for s in np.flatnonzero(ms <= coarse * coarse + margin):
                    D[s] = np.max(np.linalg.norm(bc - np.roll(bd, -s, axis=0), axis=1))

                def resid(theta):
                    shifted = orbit.shifted(theta, lay.slice_of(d))[::stride]
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
                        if min(theta, 1.0 - theta) < 0.5 / grid:
                            theta = 0.0
                        r = resid(theta)
                        if r < accept:
                            if not any(min(abs(t0 - theta), 1 - abs(t0 - theta))
                                       < 1.0 / grid for t0, _ in found):
                                found.append((theta, r))
                pairs[(c, d)] = PairShifts(full_circle=False,
                                           shifts=tuple(sorted(found)))
    return PhasePattern(period=T, pairs=pairs)
