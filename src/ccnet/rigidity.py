"""Rigidity probes: does a detected synchrony or phase pattern survive
small admissible perturbations?

A probe finds a hyperbolic periodic orbit, reads off its synchrony
pattern, checks balance, and — when the pattern is unbalanced — builds the
perturbation that the overdetermined-system analysis prescribes: a
vertex-group-invariant bump supported near the conflicting node's input
tuple at a generic time, vanishing on the group orbits of all
representative tuples, lifted to the full network by component sharing.
Perturbed orbits are re-found by continuation from a fixed section, the
pattern is re-detected, and the outcomes over an epsilon schedule and a
seeded ensemble are distilled into a classification.  Everything is
evidence, not proof: "rigid" is operationalised as surviving every
ensemble member at every epsilon.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from .admissible import (AdmissibleSystem, Perturbation, PerturbedSystem,
                         arg_permutations, c1_norm_estimate,
                         project_polydiagonal)
from .colouring import (Colouring, coloured_signature, colouring_to_json,
                        is_balanced, refines)
from .dynamics import (PHASE_GRID, HyperbolicityReport, OrbitError,
                       PeriodicOrbit, PhasePattern, detect_phase,
                       detect_steady_nodes, detect_synchrony,
                       find_periodic_orbit, is_hyperbolic, node_amplitude,
                       orbit_from_point, upstream_closure)
from .library import case_study_scenarios, control_scenario
from .network import Network, NetworkError, transitive_components, vertex_group
from .quotient import double, doubled_system, find_good_representatives, shear
from .quotient import constraint_residual as _constraint_residual


class ProbeError(RuntimeError):
    pass


T0_TIE = 1e-6  # separations this close to the largest tie (rotating waves)


@dataclass(frozen=True)
class Tolerances:
    sync: float = 1e-8
    triv: float = 1e-5
    hyp: float = 1e-3
    orbit: float = 1e-10
    phase: float = 1e-6
    steady: float = 1e-8


@dataclass
class ProbeConfig:
    system: AdmissibleSystem
    x_guess: np.ndarray
    T_guess: float
    colouring: Colouring | None = None
    representatives: tuple[int, ...] | None = None
    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    ensemble: int = 16
    seed: int = 0
    h: float = 1e-3
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        eps = tuple(self.epsilons)
        if not eps or any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if list(eps) != sorted(eps, reverse=True):
            raise ValueError("epsilons must be decreasing")
        self.epsilons = eps


@dataclass
class MemberOutcome:
    epsilon: float
    member: int
    label: str
    orbit_found: bool
    colouring: Colouring | None = None
    strictly_finer: bool | None = None
    gap: float | None = None
    constraint_residual: float | None = None
    displacement: float | None = None
    period: float | None = None
    note: str = ""


@dataclass
class ProbeReport:
    kind: str
    classification: str = "inconclusive"
    aborted: str | None = None
    period: float | None = None
    multipliers: np.ndarray | None = None
    hyperbolicity: str | None = None
    warnings: list[str] = field(default_factory=list)
    detected: Colouring | None = None
    requested: Colouring | None = None
    t0: float | None = None
    separation: float | None = None
    balanced: bool | None = None
    representatives: tuple[int, ...] | None = None
    conflict_pair: tuple[int, int] | None = None
    conflict_case: str | None = None
    theta: float | None = None
    outcomes: list[MemberOutcome] = field(default_factory=list)
    violation_candidate: bool = False
    seed: int = 0
    epsilons: tuple[float, ...] = ()
    ensemble: int = 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "classification": self.classification,
            "aborted": self.aborted,
            "period": self.period,
            "multipliers": None if self.multipliers is None else
                [[float(m.real), float(m.imag)] for m in self.multipliers],
            "hyperbolicity": self.hyperbolicity,
            "warnings": list(self.warnings),
            "detected": None if self.detected is None else colouring_to_json(self.detected),
            "t0": self.t0,
            "separation": self.separation,
            "balanced": self.balanced,
            "representatives": self.representatives,
            "conflict_pair": self.conflict_pair,
            "conflict_case": self.conflict_case,
            "theta": self.theta,
            "violation_candidate": self.violation_candidate,
            "seed": self.seed,
            "epsilons": list(self.epsilons),
            "ensemble": self.ensemble,
            "outcomes": [
                {"epsilon": o.epsilon, "member": o.member, "label": o.label,
                 "orbit_found": o.orbit_found,
                 "colouring": None if o.colouring is None else colouring_to_json(o.colouring),
                 "strictly_finer": o.strictly_finer, "gap": o.gap,
                 "constraint_residual": o.constraint_residual,
                 "displacement": o.displacement, "period": o.period,
                 "note": o.note}
                for o in self.outcomes],
        }


# -- helpers -----------------------------------------------------------------

def node_tuple(sys, x: np.ndarray, c: int) -> np.ndarray:
    """(x_c, x_{T(c)}) of a state, tails in standard order."""
    lay = sys.layout
    parts = [x[lay.slice_of(c)]]
    parts += [x[lay.slice_of(t)] for t in sys.network.input_tails(c)]
    return np.concatenate(parts) if parts else np.zeros(0)


def find_conflict(net: Network, col: Colouring,
                  representatives: Sequence[int]) -> tuple[int, int, str] | None:
    """Smallest-id constraint node whose input tuple conflicts with its
    representative's, with the construction case: (a) not input equivalent
    to any representative, (b) input equivalent to a non-identified
    representative, (c) input equivalent to its own representative."""
    cmap = col.colour_map
    rep_by_colour = {col.colour_of(r): r for r in representatives}
    rset = set(representatives)
    for n in sorted(net.node_ids):
        if n in rset:
            continue
        r = rep_by_colour[cmap[n]]
        if coloured_signature(net, n, cmap) == coloured_signature(net, r, cmap):
            continue
        if net.input_equivalent(n, r):
            case = "c"
        elif any(net.input_equivalent(n, k) for k in representatives):
            case = "b"
        else:
            case = "a"
        return n, r, case
    return None


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _calibrate(sys: AdmissibleSystem, pert: Perturbation,
               rng: np.random.Generator) -> Perturbation:
    """Scale the bump so its grid C1-norm estimate is about 1."""
    arity = sys.arity_of(sys.class_rep(pert.class_rep))
    in_dims = (arity.self_dim,) + arity.input_dims
    pts = [pert.z]
    for _ in range(12):
        pts.append(pert.z + pert.delta * rng.uniform(-2.2, 2.2, size=len(pert.z)))
    est = c1_norm_estimate(lambda y: pert.component_value(sys, y),
                           np.asarray(pts), out_dims=(arity.self_dim,),
                           in_dims=in_dims)
    return pert.with_scale(1.0 / max(est, 1e-12))


def build_proof_perturbation(sys: AdmissibleSystem, col: Colouring,
                             representatives: Sequence[int], x0: np.ndarray,
                             separation: float, rng: np.random.Generator
                             ) -> tuple[Perturbation, tuple[int, int], str]:
    """The conflicting-node bump: supported near the conflict node's input
    tuple at the chosen time, exactly zero on the vertex-group orbits of
    every representative tuple of the same input class."""
    net = sys.network
    hit = find_conflict(net, col, representatives)
    if hit is None:
        raise ProbeError("colouring is unbalanced but no conflicting node was found")
    n, r, case = hit
    rep_class = sys.class_rep(n)
    arity = sys.arity_of(rep_class)
    perms = arg_permutations(vertex_group(net, rep_class), arity)
    z = node_tuple(sys, x0, n)
    avoid_nodes = [c for c in representatives if c in net.input_class_of(n)]
    avoid = [node_tuple(sys, x0, c) for c in avoid_nodes]
    if avoid:
        minsep = np.inf
        for a in avoid:
            for p in perms:
                for q in perms:
                    d = float(np.linalg.norm(a[np.asarray(p)] - z[np.asarray(q)]))
                    minsep = min(minsep, d)
        delta = 0.49 * minsep
    elif np.isfinite(separation):
        delta = 0.49 * separation
    else:
        # single-colour pattern: nothing to stay clear of, keep the support
        # on the scale of the state itself
        delta = 0.49 * max(1.0, float(np.max(np.abs(x0))))
    if not np.isfinite(delta) or delta < 1e-6:
        raise ProbeError(
            f"no valid bump radius: orbit separation {delta:.3e} below resolution")
    w = _unit_vector(rng, arity.self_dim)
    pert = _calibrate(sys, Perturbation(class_rep=rep_class, z=z, delta=delta,
                                        w=w, label=f"proof-case-{case}"), rng)
    for a in avoid:
        for p in perms:
            val = pert.component_value(sys, a[np.asarray(p)])
            if np.any(val != 0.0):
                raise ProbeError("proof bump fails to vanish on a representative "
                                 "tuple orbit")
    if not np.any(pert.component_value(sys, z)):
        raise ProbeError("proof bump vanishes at the conflict tuple")
    for _ in range(3):  # vertex-group invariance, sampled
        y = z + delta * rng.uniform(-2.0, 2.0, size=len(z))
        base_val = pert.component_value(sys, y)
        for p in perms:
            if np.max(np.abs(pert.component_value(sys, y[np.asarray(p)])
                             - base_val)) > 1e-12:
                raise ProbeError("constructed perturbation failed the "
                                 "group-invariance check")
    return pert, (n, r), case


def random_perturbation(sys: AdmissibleSystem, orbit: PeriodicOrbit,
                        rng: np.random.Generator, label: str) -> Perturbation:
    """A random admissible bump with support near the orbit."""
    reps = sys.class_reps
    rep = reps[int(rng.integers(len(reps)))]
    arity = sys.arity_of(rep)
    L = arity.self_dim + sum(arity.input_dims)
    i = int(rng.integers(orbit.samples.shape[0]))
    member = sys.network.input_class_of(rep)[0]
    z = node_tuple(sys, orbit.samples[i], member)
    amp = max(1e-3, float(np.max(np.abs(orbit.samples))))
    z = z + 0.2 * amp * rng.standard_normal(L)
    delta = amp * float(rng.uniform(0.3, 0.8))
    w = _unit_vector(rng, arity.self_dim)
    return _calibrate(sys, Perturbation(class_rep=rep, z=z, delta=delta, w=w,
                                        label=label), rng)


def _relative_gap(sys, samples: np.ndarray, c: int, d: int) -> float:
    lay = sys.layout
    bc = samples[:, lay.slice_of(c)]
    bd = samples[:, lay.slice_of(d)]
    gap = float(np.max(np.linalg.norm(bc - bd, axis=1)))
    amp = max(node_amplitude(bc), node_amplitude(bd))
    return gap / amp if amp > 1e-8 else gap


def _pattern_gap(sys, samples: np.ndarray, before: Colouring,
                 after: Colouring) -> float:
    """Largest relative gap among pairs merged before but split after; when
    nothing split, the largest residual gap across surviving classes."""
    worst = 0.0
    survivors = 0.0
    for part in before.parts:
        for i, c in enumerate(part):
            for d in part[i + 1:]:
                g = _relative_gap(sys, samples, c, d)
                if after.colour_of(c) != after.colour_of(d):
                    worst = max(worst, g)
                else:
                    survivors = max(survivors, g)
    return worst if worst > 0 else survivors


def _select_t0(report: ProbeReport, sys, orbit: PeriodicOrbit,
               states: np.ndarray, col: Colouring,
               tol_sync: float) -> tuple[np.ndarray, float]:
    """Pick the earliest sample time maximising, up to T0_TIE, the least
    distance between representative node values (infinity for one colour),
    record it on the report, and return the state there projected onto
    the polydiagonal of col, with the separation."""
    lay = sys.layout
    reps = col.representatives()
    pairs = [(r, s) for i, r in enumerate(reps) for s in reps[i + 1:]
             if lay.dim_of(r) == lay.dim_of(s)]
    sep = np.full(orbit.samples.shape[0], np.inf)
    for r, s in pairs:
        d = np.linalg.norm(orbit.samples[:, lay.slice_of(r)]
                           - orbit.samples[:, lay.slice_of(s)], axis=1)
        sep = np.minimum(sep, d)
    i0 = int(np.argmax(sep >= (1.0 - T0_TIE) * np.max(sep))) if pairs else 0
    report.t0 = float(orbit.times[i0])
    report.separation = float(sep[i0])
    amp = max(1.0, float(np.max(np.abs(states))))
    if report.separation <= 10 * tol_sync * amp:
        raise ProbeError("representative coordinates are not separated at any time")
    return project_polydiagonal(lay, col.colour_map, states[i0]), report.separation


def _classify(balanced: bool, col0: Colouring, outcomes: list[MemberOutcome],
              epsilons: Sequence[float], tol_sync: float) -> tuple[str, bool]:
    smallest_two = sorted(epsilons)[:2]
    persists_all = bool(outcomes) and all(
        o.orbit_found and o.colouring == col0 for o in outcomes)
    members = sorted({o.member for o in outcomes})
    broken = False
    for m in members:
        outs = {o.epsilon: o for o in outcomes if o.member == m}
        if all(e in outs and outs[e].orbit_found and outs[e].strictly_finer
               and (outs[e].gap or 0.0) > 10 * tol_sync for e in smallest_two):
            broken = True
            break
    if balanced:
        return ("pattern-balanced-persists" if persists_all else "inconclusive",
                False)
    if broken:
        return "pattern-broken", False
    return "inconclusive", persists_all


# -- the probe skeleton -------------------------------------------------------------

@contextmanager
def _aborts_into(report):
    """Record a ProbeError raised by the probe body as the report's abort
    reason; the report is returned as far as it got."""
    try:
        yield
    except ProbeError as exc:
        report.aborted = str(exc)


def _locate(cfg: ProbeConfig) -> tuple[PeriodicOrbit, HyperbolicityReport]:
    """Find the base orbit and run its Floquet check."""
    sys = cfg.system
    try:
        orbit = find_periodic_orbit(sys, cfg.x_guess, cfg.T_guess,
                                    h=cfg.h, tol=cfg.tol.orbit)
    except OrbitError as exc:
        raise ProbeError(f"no orbit: {exc}") from exc
    hyp = is_hyperbolic(sys, orbit, net=sys.network, tol_triv=cfg.tol.triv,
                        tol_hyp=cfg.tol.hyp)
    return orbit, hyp


def _continue(cfg: ProbeConfig, orbit: PeriodicOrbit, rng: np.random.Generator,
              proof: Perturbation | None, measure) -> list:
    """Continue the base orbit over the epsilon schedule x the ensemble.

    The ensemble is the proof bump, when there is one, then random bumps
    near the base orbit up to cfg.ensemble members.  Each member's orbit is
    re-found by continuation from the base orbit's fixed section, and
    measure(out, psys, orb) returns the probe's record of it: out carries
    the shared fields, and orb is None when the continuation failed
    (out.note says why).
    """
    members = [] if proof is None else [("proof", proof)]
    while len(members) < cfg.ensemble:
        label = f"random-{len(members)}"
        members.append((label, random_perturbation(cfg.system, orbit, rng, label)))
    records = []
    for eps in cfg.epsilons:
        for m, (label, pert) in enumerate(members):
            out = MemberOutcome(epsilon=eps, member=m, label=label,
                                orbit_found=False)
            psys = PerturbedSystem(cfg.system, [pert], eps)
            try:
                orb = find_periodic_orbit(psys, orbit.anchor, orbit.period,
                                          h=cfg.h, tol=cfg.tol.orbit,
                                          section=(orbit.section_point,
                                                   orbit.section_normal))
            except OrbitError as exc:
                out.note = f"continuation failed: {exc}"
                orb = None
            else:
                out.orbit_found = True
                out.period = orb.period
                out.displacement = float(np.linalg.norm(orb.anchor - orbit.anchor))
            records.append(measure(out, psys, orb))
    return records


def _redetect(out: MemberOutcome, sys, states: np.ndarray, col0: Colouring,
              tol_sync: float):
    """Record the synchrony pattern of a perturbed orbit against col0."""
    col = detect_synchrony(sys, states, tol=tol_sync)
    out.colouring = col
    out.strictly_finer = refines(col, col0) and col != col0
    out.gap = _pattern_gap(sys, states, col0, col)


# -- the synchrony probe ---------------------------------------------------------

def rigidity_probe(cfg: ProbeConfig) -> ProbeReport:
    """Run the full synchrony-rigidity experiment.

    Procedure: locate the orbit and Floquet-check it; detect the local
    synchrony pattern and pick the sample time maximising representative
    separation; test balance; when unbalanced, identify the conflicting
    node and its construction case, build the vanishing-on-representatives
    bump and lift it by component sharing; then for each epsilon and each
    ensemble member re-find the orbit by continuation from the fixed
    section, re-detect the pattern, and record constraint residuals and
    displacements.  Classification:
    pattern-broken / pattern-balanced-persists / inconclusive.
    """
    sys = cfg.system
    net = sys.network
    rng = np.random.default_rng(cfg.seed)
    report = ProbeReport(kind="rigidity", seed=cfg.seed, epsilons=cfg.epsilons,
                         ensemble=cfg.ensemble, requested=cfg.colouring)
    with _aborts_into(report):
        orbit, hyp = _locate(cfg)
        report.period = orbit.period
        report.multipliers = orbit.multipliers
        report.hyperbolicity = hyp.verdict
        report.warnings.extend(hyp.warnings)
        if hyp.verdict != "hyperbolic":
            raise ProbeError(f"orbit is {hyp.verdict}; the probe requires hyperbolicity")

        col0 = detect_synchrony(sys, orbit.samples, tol=cfg.tol.sync)
        report.detected = col0
        if cfg.colouring is not None and cfg.colouring != col0:
            report.warnings.append(
                f"requested colouring {cfg.colouring} differs from detected {col0}; "
                f"proceeding with the detected pattern")
        x0, separation = _select_t0(report, sys, orbit, orbit.samples, col0,
                                    cfg.tol.sync)

        report.balanced = is_balanced(net, col0)
        if cfg.representatives is not None:
            R = tuple(sorted(cfg.representatives))
            if not col0.is_transversal(R):
                raise ProbeError(f"{R} is not a transversal of the detected colouring")
        else:
            try:
                good = find_good_representatives(net, col0)
            except NetworkError:
                good = None
            R = good or col0.representatives()
            if good is None:
                report.warnings.append(
                    "no transversal with a single maximal component found; "
                    "using least-id representatives")
        report.representatives = R

        proof = None
        if not report.balanced:
            proof, report.conflict_pair, report.conflict_case = \
                build_proof_perturbation(sys, col0, R, x0, separation, rng)

        def measure(out, psys, orb):
            if orb is not None:
                _redetect(out, psys, orb.samples, col0, cfg.tol.sync)
                x_t0 = orb.shifted(report.t0 / orb.period)[:1]
                res = _constraint_residual(psys, col0, R, x_t0)
                out.constraint_residual = max((float(v[0]) for v in res.values()),
                                              default=0.0)
            return out

        report.outcomes = _continue(cfg, orbit, rng, proof, measure)
        report.classification, report.violation_candidate = _classify(
            report.balanced, col0, report.outcomes, cfg.epsilons, cfg.tol.sync)
    return report


# -- the built-in case studies ------------------------------------------------------

def case_study_3ring(epsilons: tuple[float, ...] = (1e-3, 1e-4),
                     ensemble: int = 2, seed: int = 0,
                     h: float = 2e-3) -> dict[str, ProbeReport]:
    """Probe the four engineered synchrony patterns on the 3-node ring.

    Every pattern is unbalanced, so all four reports should classify
    pattern-broken.  The ensemble is kept small because the constructed
    proof bump is the decisive member; raise it to collect more evidence.
    """
    out = {}
    for scenario in case_study_scenarios():
        cfg = ProbeConfig(system=scenario.system, x_guess=scenario.x_guess,
                          T_guess=scenario.T_guess, colouring=scenario.colouring,
                          epsilons=epsilons, ensemble=max(2, ensemble),
                          seed=seed, h=h)
        out[scenario.name] = rigidity_probe(cfg)
    return out


def control_probe(epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
                  ensemble: int = 4, seed: int = 0,
                  h: float = 2e-3) -> ProbeReport:
    """Balanced 2-colouring control on the 4-node network; the anti-phase
    orbit's pattern must persist under the whole random ensemble."""
    scenario = control_scenario()
    cfg = ProbeConfig(system=scenario.system, x_guess=scenario.x_guess,
                      T_guess=scenario.T_guess, colouring=scenario.colouring,
                      epsilons=epsilons, ensemble=ensemble, seed=seed, h=h)
    return rigidity_probe(cfg)


# -- the phase probe -----------------------------------------------------------------

def phase_probe(cfg: ProbeConfig, theta: float) -> ProbeReport:
    """Probe rigidity of a phase relation via the doubled network.

    The base orbit's phase pattern must contain theta.  The sheared state
    (x(t), x(t + theta*T)) is a quasi-hyperbolic orbit of the doubled
    system (two unit multipliers); perturbations are pairs (p, p) obtained
    automatically from component sharing, the perturbed sheared orbit is
    the canonical one built from the copy-1 continuation, and cross-copy
    synchrony is re-detected on it.
    """
    sys = cfg.system
    net = sys.network
    rng = np.random.default_rng(cfg.seed)
    theta = float(theta) % 1.0
    report = ProbeReport(kind="phase", seed=cfg.seed, epsilons=cfg.epsilons,
                         ensemble=cfg.ensemble, theta=theta)
    with _aborts_into(report):
        orbit, base_hyp = _locate(cfg)
        report.period = orbit.period
        if base_hyp.verdict != "hyperbolic":
            raise ProbeError(f"base orbit is {base_hyp.verdict}")

        pattern = detect_phase(sys, orbit, tol=cfg.tol.phase)
        if not any(p.contains(theta) and (c != d or theta > 0)
                   for (c, d), p in pattern.pairs.items()):
            raise ProbeError(f"theta={theta} is not in the detected phase pattern")

        dbl = double(net)
        dsys = doubled_system(sys, dbl)
        sheared = shear(orbit, theta)
        try:
            orb2 = orbit_from_point(dsys, sheared[0], orbit.period, h=cfg.h, tol=1e-6)
        except OrbitError as exc:
            raise ProbeError(f"sheared orbit does not close: {exc}") from exc
        report.multipliers = orb2.multipliers
        hyp2 = is_hyperbolic(dsys, orb2, net=dbl.network, tol_triv=cfg.tol.triv,
                             tol_hyp=cfg.tol.hyp)
        report.hyperbolicity = hyp2.verdict
        report.warnings.extend(hyp2.warnings)
        if not hyp2.quasi_hyperbolic:
            raise ProbeError("sheared orbit is not quasi-hyperbolic "
                             f"({hyp2.near_one} unit multipliers)")

        col0 = detect_synchrony(dsys, sheared, tol=cfg.tol.sync)
        report.detected = col0
        report.balanced = is_balanced(dbl.network, col0)
        x0, separation = _select_t0(report, dsys, orb2, sheared, col0,
                                    cfg.tol.sync)
        try:
            good = find_good_representatives(dbl.network, col0)
        except NetworkError:
            good = None
        R = good or col0.representatives()
        report.representatives = R

        proof = None
        if not report.balanced:
            pert2, report.conflict_pair, report.conflict_case = \
                build_proof_perturbation(dsys, col0, R, x0, separation, rng)
            _, base_rep = dbl.copy_of(dsys.class_rep(pert2.class_rep))
            proof = replace(pert2, class_rep=base_rep)

        def measure(out, psys, orb):
            if orb is not None:
                _redetect(out, dsys, shear(orb, theta), col0, cfg.tol.sync)
            return out

        report.outcomes = _continue(cfg, orbit, rng, proof, measure)
        report.classification, report.violation_candidate = _classify(
            report.balanced, col0, report.outcomes, cfg.epsilons, cfg.tol.sync)
    return report


# -- full oscillation ---------------------------------------------------------------

@dataclass
class OscillationReport:
    aborted: str | None = None
    steady_unperturbed: frozenset[int] = frozenset()
    rigidly_steady: frozenset[int] = frozenset()
    upstream_closed: bool = True
    transitive: bool = False
    violation_candidate: bool = False
    outcomes: list[tuple[float, int, tuple[int, ...]]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"aborted": self.aborted,
                "steady_unperturbed": sorted(self.steady_unperturbed),
                "rigidly_steady": sorted(self.rigidly_steady),
                "upstream_closed": self.upstream_closed,
                "transitive": self.transitive,
                "violation_candidate": self.violation_candidate,
                "outcomes": [{"epsilon": e, "member": m, "steady": list(s)}
                             for e, m, s in self.outcomes]}


def full_oscillation_probe(cfg: ProbeConfig) -> OscillationReport:
    """Which nodes stay steady under the whole perturbation ensemble?

    Nodes steady for every member at every epsilon are flagged rigidly
    steady (evidence).  Their upstream closure must coincide with the set
    itself; on a transitive network any rigidly steady node contradicts
    full oscillation and is flagged for inspection.
    """
    sys = cfg.system
    net = sys.network
    rng = np.random.default_rng(cfg.seed)
    report = OscillationReport()
    with _aborts_into(report):
        orbit, hyp = _locate(cfg)
        if hyp.verdict != "hyperbolic":
            raise ProbeError(f"orbit is {hyp.verdict}; continuation needs hyperbolicity")
        steady0 = detect_steady_nodes(sys, orbit.samples, tol=cfg.tol.steady)
        report.steady_unperturbed = steady0
        rigid = set(steady0)

        def measure(out, psys, orb):
            if orb is None:
                return out.epsilon, out.member, ()
            steady = detect_steady_nodes(psys, orb.samples, tol=cfg.tol.steady)
            rigid.intersection_update(steady)
            return out.epsilon, out.member, tuple(sorted(steady))

        report.outcomes = _continue(cfg, orbit, rng, None, measure)
        report.rigidly_steady = frozenset(rigid)
        closure = upstream_closure(net, rigid) if rigid else frozenset()
        report.upstream_closed = closure == frozenset(rigid)
        report.transitive = len(transitive_components(net).components) == 1
        report.violation_candidate = report.transitive and bool(rigid)
    return report


# -- spatiotemporal symmetry report ---------------------------------------------------

@dataclass
class HKReport:
    colouring: Colouring
    group_order: int
    cyclic: bool
    generator: dict[int, int] | None
    shift_checks: list[tuple[int, int, float, int, bool]]
    consistent: bool
    mismatches: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"colouring": colouring_to_json(self.colouring),
                "group_order": self.group_order,
                "cyclic": self.cyclic,
                "generator": self.generator,
                "consistent": self.consistent,
                "mismatches": list(self.mismatches),
                "shift_checks": [
                    {"c": c, "d": d, "theta": th, "m": m, "ok": ok}
                    for c, d, th, m, ok in self.shift_checks]}


def _perm_order(perm: Mapping[int, int]) -> int:
    seen = set()
    order = 1
    for start in perm:
        if start in seen:
            continue
        length = 0
        c = start
        while True:
            c = perm[c]
            length += 1
            seen.add(c)
            if c == start:
                break
        order = lcm(order, length)
    return order


def hk_report(net: Network, col: Colouring, pattern: PhasePattern,
              resolution: float = 2.0 / PHASE_GRID) -> HKReport:
    """Check a detected phase pattern against cyclic quotient symmetry.

    Builds the quotient by the balanced colouring, lists its automorphisms
    (a pruned search, in itertools.permutations order), tests cyclicity,
    verifies each detected shift is a multiple of 1/k (k the group order),
    and reports the first generator gamma in that order with
    gamma^m [c] = [d] whenever theta_cd = m/k.
    """
    from .network import automorphisms
    from .quotient import quasi_quotient

    if not is_balanced(net, col):
        raise ProbeError("the colouring must be balanced for a quotient symmetry report")
    qq = quasi_quotient(net, col, col.representatives())
    autos = automorphisms(qq.network)
    k = len(autos)
    cyclic = any(_perm_order(g) == k for g in autos)

    checks: list[tuple[int, int, float, int, bool]] = []
    mismatches: list[str] = []
    detected: list[tuple[int, int, float, int]] = []
    for (c, d), pair in sorted(pattern.pairs.items()):
        if pair.full_circle:
            continue
        for theta, _ in pair.shifts:
            m = int(round(theta * k)) % k
            ok = abs(theta * k - round(theta * k)) <= k * resolution
            checks.append((c, d, theta, m, ok))
            if ok:
                detected.append((c, d, theta, m))
            else:
                mismatches.append(
                    f"theta({c},{d}) = {theta:.6f} is not a multiple of 1/{k}")

    generator = None
    if cyclic:
        bracket = qq.bracket
        for g in autos:
            if _perm_order(g) != k:
                continue
            good = True
            for c, d, _, m in detected:
                node = bracket[c]
                for _ in range(m):
                    node = g[node]
                if node != bracket[d]:
                    good = False
                    break
            if good:
                generator = dict(g)
                break
        if generator is None and detected:
            mismatches.append("no cyclic generator is consistent with the shifts")
    elif detected and k > 1:
        mismatches.append("quotient automorphism group is not cyclic")

    consistent = not mismatches and (generator is not None or not detected or k == 1)
    if k == 1 and detected and any(m != 0 for *_x, m in detected):
        consistent = False
        mismatches.append("nontrivial shifts with a trivial quotient symmetry group")
    return HKReport(colouring=col, group_order=k, cyclic=cyclic,
                    generator=generator, shift_checks=checks,
                    consistent=consistent, mismatches=mismatches)
