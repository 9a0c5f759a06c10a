"""Workloads: seeded task lists over ccnet's public API.

A task is one user-level call (one probe, one orbit with its Floquet
check, or one combinatorial query) plus a check of its output by
bench_checks.  Only the call is timed.  Calls go through the `ccnet`
package namespace at call time, so the traced run's wrappers see them.
Each `build_*` function is the workload's set-up: it constructs every
system (parse, invariance check, rhs compilation) before the first timed
task and returns the task list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import bench_checks as C

# RK4 step for every ODE task: ten times the case studies' default 2e-3,
# so that a whole probe round fits a run.  Per-step costs do not depend
# on it; the per-layer figure compile.us_per_rk4_step compares directly.
H = 2e-2
# The phase probe compares the sheared copies through a cubic spline of
# the RK4 grid against a 1e-8 synchrony tolerance; at H the spline error
# of a perturbed orbit exceeds it (a balanced wave then reads
# inconclusive), so phase probes run at half the step.
H_PHASE = 1e-2
EPSILONS = (1e-3,)
ENSEMBLE = 1
GUESSES_PER_SYSTEM = 1
GUESS_SHIFT = 0.03          # relative size of the cold-start perturbation
RANDOM_NETWORKS = 3
RANDOM_NODES = 7


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _spec(net):
    """Plain (node types, arrows) copy of a network for the own checks."""
    types = {c: net.node_type(c) for c in net.node_ids}
    arrows = [(a.arrow_type, a.head, a.tail) for a in net.arrows]
    return types, arrows


def _warm(system):
    system.compiled  # noqa: B018 - builds the rhs during set-up
    return system


# -- probe ---------------------------------------------------------------------------

def _outcome_triples(report):
    return [(o.member, o.epsilon, o.orbit_found, o.displacement) for o in report.outcomes]


def _check_sync_probe(report, types, arrows, expected_parts):
    C.require(report.aborted is None, f"probe aborted: {report.aborted}")
    C.check_parts(report.detected.parts, expected_parts)
    C.check_classification(report.classification,
                           C.own_balanced(types, arrows, expected_parts))
    C.require(not report.violation_candidate, "report flags a violation candidate")
    C.check_displacements(_outcome_triples(report))


def _doubled_spec(types, arrows):
    off = max(types)
    dtypes = dict(types)
    dtypes.update({c + off: t for c, t in types.items()})
    darrows = list(arrows) + [(t, h + off, tl + off) for t, h, tl in arrows]
    return dtypes, darrows


def _check_phase_probe(report, types, arrows, expect_balanced):
    C.require(report.aborted is None, f"phase probe aborted: {report.aborted}")
    dtypes, darrows = _doubled_spec(types, arrows)
    balanced = C.own_balanced(dtypes, darrows, report.detected.parts)
    C.require(balanced == expect_balanced,
              f"doubled pattern balanced={balanced}, expected {expect_balanced}")
    C.check_classification(report.classification, balanced)
    C.require(not report.violation_candidate, "report flags a violation candidate")
    C.check_displacements(_outcome_triples(report))


def build_probe(ccnet, seed: int) -> list[Task]:
    lib = ccnet.library
    Probe = ccnet.ProbeConfig
    tasks = []
    for sc in lib.case_study_scenarios():
        _warm(sc.system)
        types, arrows = _spec(sc.system.network)
        cfg = Probe(system=sc.system, x_guess=sc.x_guess, T_guess=sc.T_guess,
                    colouring=sc.colouring, epsilons=EPSILONS, ensemble=ENSEMBLE,
                    seed=seed, h=H)
        tasks.append(Task(f"rigidity-{sc.name}",
                          lambda cfg=cfg: ccnet.rigidity_probe(cfg),
                          lambda rep, t=types, a=arrows, p=sc.colouring.parts:
                              _check_sync_probe(rep, t, a, p)))

    ctrl = lib.control_scenario()
    _warm(ctrl.system)
    types, arrows = _spec(ctrl.system.network)
    tasks.append(Task("control",
                      lambda: ccnet.control_probe(epsilons=EPSILONS, ensemble=ENSEMBLE,
                                                  seed=seed, h=H),
                      lambda rep, t=types, a=arrows:
                          _check_sync_probe(rep, t, a, [(1, 3), (2, 4)])))

    for name, (sys_, guess, T), balanced in (
            ("phase-symmetric", lib.ring_wave_system(0.2, 3), True),
            ("phase-mixed", lib.mixed_ring_wave_system(0.2), False)):
        _warm(sys_)
        types, arrows = _spec(sys_.network)
        cfg = Probe(system=sys_, x_guess=guess, T_guess=T, epsilons=EPSILONS,
                    ensemble=ENSEMBLE, seed=seed, h=H_PHASE)
        tasks.append(Task(name, lambda cfg=cfg: ccnet.phase_probe(cfg, 1.0 / 3.0),
                          lambda rep, t=types, a=arrows, b=balanced:
                              _check_phase_probe(rep, t, a, b)))

    ff = _warm(lib.two_max_component_system(node1_oscillates=False))
    ff_types, ff_arrows = _spec(ff.network)

    def run_ff():
        settle = ccnet.integrate(ff, np.array([0.0, 0.0, 1.0, 0.0, 0.2, 0.1]), 40.0,
                                 h=H, record_every=4000)
        return ccnet.full_oscillation_probe(Probe(
            system=ff, x_guess=settle.states[-1], T_guess=2 * math.pi,
            epsilons=EPSILONS, ensemble=ENSEMBLE, seed=seed, h=H))

    def check_ff(rep):
        C.require(rep.aborted is None, f"fullosc aborted: {rep.aborted}")
        C.require(set(rep.rigidly_steady) == {1},
                  f"rigidly steady {sorted(rep.rigidly_steady)}, expected [1]")
        C.require(C.upstream(ff_arrows, {1}) == {1} and rep.upstream_closed,
                  "steady set is not upstream closed")
        transitive = all(C.upstream(ff_arrows, {c}) == set(ff_types) for c in ff_types)
        C.require(rep.transitive == transitive, f"transitive reported {rep.transitive}")
        C.require(not rep.violation_candidate, "report flags a violation candidate")

    tasks.append(Task("fullosc-feedforward", run_ff, check_ff))

    ring, guess, T = lib.ring_wave_system(0.2, 3)
    _warm(ring)
    r_types, r_arrows = _spec(ring.network)
    ring_cfg = Probe(system=ring, x_guess=guess, T_guess=T, epsilons=EPSILONS,
                     ensemble=ENSEMBLE, seed=seed, h=H)

    def check_ring(rep):
        C.require(rep.aborted is None, f"fullosc aborted: {rep.aborted}")
        strongly = all(C.upstream(r_arrows, {c}) == set(r_types) for c in r_types)
        C.require(strongly and rep.transitive, "ring not reported transitive")
        C.require(not rep.rigidly_steady,
                  f"rigidly steady {sorted(rep.rigidly_steady)} on a transitive ring")
        C.require(not rep.violation_candidate, "report flags a violation candidate")

    tasks.append(Task("fullosc-ring",
                      lambda: ccnet.full_oscillation_probe(ring_cfg), check_ring))
    return tasks


# -- orbit-floquet ------------------------------------------------------------------

def _perturbed_guess(rng: np.random.Generator, x, T):
    d = rng.standard_normal(len(x))
    x = np.asarray(x, dtype=float)
    x_guess = x + GUESS_SHIFT * float(np.linalg.norm(x)) * d / np.linalg.norm(d)
    return x_guess, T * (1.0 + GUESS_SHIFT * float(rng.uniform(-1.0, 1.0)))


def _orbit_task(ccnet, name, system, x_guess, T_guess, period, radii, kappas,
                extra_check):
    def run():
        orbit = ccnet.find_periodic_orbit(system, x_guess, T_guess, h=H)
        hyp = ccnet.is_hyperbolic(system, orbit)
        col = ccnet.detect_synchrony(system, orbit.samples)
        pattern = ccnet.detect_phase(system, orbit)
        return orbit, hyp, col, pattern

    def check(result):
        orbit, hyp, col, pattern = result
        # RK4 at step H: errors scale as H^4 (about 1.6e-7); the closed
        # forms must hold to well within that
        C.check_period(orbit.period, period, rel_tol=1e-6)
        C.check_radii(orbit.samples, radii, tol=1e-6)
        C.check_one_trivial_multiplier(orbit.multipliers)
        C.check_liouville(orbit.multipliers,
                          C.divergence_integral(orbit.period, radii, kappas), tol=1e-6)
        C.require(hyp.verdict == "hyperbolic", f"orbit verdict {hyp.verdict}")
        extra_check(orbit, col, pattern)

    return Task(name, run, check)


def build_orbit_floquet(ccnet, seed: int) -> list[Task]:
    lib = ccnet.library
    rng = np.random.default_rng(seed)
    systems = []
    for n in (3, 4, 5):
        sys_, guess, _ = lib.ring_wave_system(0.2, n)
        period, radius = C.ring_wave_closed_form(0.2, n)

        def ring_check(orbit, col, pattern, n=n):
            C.check_parts(col.parts, [(c,) for c in range(1, n + 1)])
            for c in range(1, n + 1):
                C.check_shift(pattern.shifts(c, c % n + 1).thetas(), 1.0 / n, tol=1e-6)

        systems.append((f"ring{n}", sys_, guess, period, [radius] * n, [0.2] * n,
                        ring_check))

    ctrl = lib.control_scenario(0.1)
    rho = math.sqrt(1 - 2 * 0.1)

    def control_check(orbit, col, pattern):
        C.check_parts(col.parts, [(1, 3), (2, 4)])
        for c, d in ((1, 3), (2, 4)):
            C.check_shift(pattern.shifts(c, d).thetas(), 0.0, tol=1e-6)

    systems.append(("control", ctrl.system, ctrl.x_guess, 2 * math.pi, [rho] * 4,
                    [0.1] * 4, control_check))

    def hopf_check(orbit, col, pattern):
        C.check_hopf_multiplier(orbit.multipliers, rel_tol=1e-6)

    systems.append(("hopf", lib.hopf_system(), np.array([1.0, 0.0]), 2 * math.pi,
                    [1.0], [0.0], hopf_check))

    tasks = []
    for name, sys_, guess, period, radii, kappas, extra in systems:
        _warm(sys_)
        for k in range(GUESSES_PER_SYSTEM):
            x_guess, T_guess = _perturbed_guess(rng, guess, period)
            tasks.append(_orbit_task(ccnet, f"{name}-{k}", sys_, x_guess, T_guess,
                                     period, radii, kappas, extra))
    return tasks


# -- combinatorics --------------------------------------------------------------------

def random_network_spec(rnd: random.Random, n: int):
    """Random homogeneous network: one node type, and every node reads one
    input of each of two arrow types from uniformly chosen tails, so all
    nodes are input equivalent and enumeration examines all Bell(n)
    partitions."""
    types = {c: "N" for c in range(1, n + 1)}
    arrows = [(t, c, rnd.randint(1, n)) for c in range(1, n + 1) for t in ("s", "d")]
    return types, arrows


def _two_rings(ccnet, k):
    arrows = [("s", (c % k) + 1, c) for c in range(1, k + 1)]
    arrows += [("s", (c % k) + 1 + k, c + k) for c in range(1, k + 1)]
    return ccnet.mk_network(["R"] * (2 * k), arrows)


def build_combinatorics(ccnet, seed: int) -> list[Task]:
    lib = ccnet.library
    rnd = random.Random(seed)
    tasks = []

    ring10 = lib.uniform_ring(10)
    tasks.append(Task("enumerate-ring10", lambda: ccnet.enumerate_balanced(ring10),
                      lambda cols: C.check_count(len(cols), C.divisor_count(10),
                                                 "balanced colourings of the 10-ring")))

    ring8 = lib.uniform_ring(8)
    tasks.append(Task("automorphisms-ring8", lambda: ccnet.automorphisms(ring8),
                      lambda autos: C.check_ring_rotations(autos, 8)))

    two4 = _two_rings(ccnet, 4)
    r8_types, r8_arrows = _spec(ring8)
    t4_types, t4_arrows = _spec(two4)
    # same node types and arrow counts, but only the 8-ring is strongly
    # connected, so the search walks all 8! permutations and says no
    C.require(C.upstream(r8_arrows, {1}) == set(r8_types)
              and C.upstream(t4_arrows, {1}) != set(t4_types),
              "the 8-ring and two 4-rings must differ in connectivity")
    tasks.append(Task("isomorphic-ring8-vs-two-rings",
                      lambda: ccnet.isomorphic(ring8, two4),
                      lambda iso: C.require(not iso, "8-ring reported isomorphic "
                                                     "to two 4-rings")))

    for i in range(RANDOM_NETWORKS):
        types, arrows = random_network_spec(rnd, RANDOM_NODES)
        net = ccnet.mk_network(types, arrows)
        expected = C.brute_force_balanced_count(types, arrows)
        tasks.append(Task(f"enumerate-random-{i}",
                          lambda net=net: ccnet.enumerate_balanced(net),
                          lambda cols, e=expected: C.check_count(
                              len(cols), e, "balanced colourings against brute force")))
        perm = list(types)
        rnd.shuffle(perm)
        copy = ccnet.mk_network(*C.relabel(types, arrows, dict(zip(types, perm))))
        tasks.append(Task(f"isomorphic-relabelled-{i}",
                          lambda a=net, b=copy: ccnet.isomorphic(a, b),
                          lambda iso: C.require(iso, "relabelled copy not isomorphic")))
        renamed = ccnet.mk_network(
            types, [({"s": "x", "d": "y"}[t], h, tl) for t, h, tl in arrows])
        tasks.append(Task(f"equivalent-renamed-{i}",
                          lambda a=net, b=renamed: ccnet.linearly_equivalent(a, b),
                          lambda eq: C.require(eq, "arrow-type renaming changed the span")))

    control_net = lib.four_node_control_net()
    mono = ccnet.Colouring.monochrome(control_net.node_ids)
    tasks.append(Task("refine-control",
                      lambda: ccnet.coarsest_balanced_refinement(control_net, mono),
                      lambda col: C.check_parts(col.parts, [(1, 3), (2, 4)])))

    mod5 = ccnet.Colouring.from_map({c: (c - 1) % 5 for c in ring10.node_ids})

    def check_quotient(qq):
        types, arrows = _spec(qq.network)
        ring5 = sorted(("s", (c % 5) + 1, c) for c in range(1, 6))
        C.require(sorted(types) == [1, 2, 3, 4, 5] and sorted(arrows) == ring5,
                  f"quotient of the 10-ring mod 5 is not the 5-ring: {arrows}")

    tasks.append(Task("quasi-quotient-ring10",
                      lambda: ccnet.quasi_quotient(ring10, mod5, (1, 2, 3, 4, 5)),
                      check_quotient))

    g1, g2 = lib.ode_pair()
    tasks.append(Task("equivalent-ode-pair", lambda: ccnet.linearly_equivalent(g1, g2),
                      lambda eq: C.require(eq, "the ODE pair is not equivalent")))

    coprime = [(p, q) for p in range(1, 5) for q in range(1, 5) if math.gcd(p, q) == 1]
    p, q = coprime[rnd.randrange(len(coprime))]
    for k in range(1, 9):
        net = lib.canonical_two_node(k, p, q)
        want = (k, p, q) if k == 8 else (k, None, None)
        tasks.append(Task(f"classify2-{k}", lambda net=net: ccnet.classify_2node(net),
                          lambda cls, want=want: C.require(
                              (cls.class_id, cls.p, cls.q) == want,
                              f"classified {cls}, expected class {want}")))
    return tasks


WORKLOADS = {
    "probe": build_probe,
    "orbit-floquet": build_orbit_floquet,
    "combinatorics": build_combinatorics,
}
