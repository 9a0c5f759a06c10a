"""Standalone property suites: group invariance of evaluation, balanced
polydiagonal flow invariance, semicontinuity of detection, bump support
contracts, and phase-pattern reflection symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccnet.admissible import (AdmissibleSystem, Perturbation, arg_permutations,
                              invariance_residual, polydiagonal_distance,
                              random_polydiagonal_point)
from ccnet.colouring import (Colouring, compare, enumerate_balanced,
                             is_balanced, LatticePosition, refines)
from ccnet.dynamics import detect_synchrony, integrate
from ccnet.expr import Arity
from ccnet.library import HOPF, four_node_control_net, uniform_ring
from ccnet.network import mk_network, vertex_group


def _fmt(v: float) -> str:
    return f"({v:.3f})" if v < 0 else f"{v:.3f}"


def _random_admissible(net, rng, dims=1):
    """A bounded random system: linear leak plus tanh couplings, symmetrised."""
    comps = {}
    for cls in net.input_partition:
        rep = cls[0]
        n_in = len(net.input_set(rep))
        terms = []
        for i in range(1, dims + 1):
            parts = [f"-{rng.uniform(0.5, 1.5):.3f}*x[{i}]"]
            for j in range(1, n_in + 1):
                parts.append(f"{_fmt(rng.uniform(-0.8, 0.8))}*tanh(u[{j}][{i}])")
            terms.append(" + ".join(parts) if parts else "0")
        comps[rep] = ", ".join(terms)
    dmap = {t: dims for t in net.node_types()}
    return AdmissibleSystem(net, dmap, comps, symmetrise=True)


class TestAdmissibilityInvariance:
    def test_vertex_group_sampling(self, rng):
        nets = [
            mk_network(["A", "B", "B", "B"],
                       [("s", 1, 2), ("s", 1, 3), ("s", 1, 4), ("t", 2, 1),
                        ("t", 3, 1), ("t", 4, 1)]),
            four_node_control_net(),
            uniform_ring(4),
        ]
        for net in nets:
            sys = _random_admissible(net, rng, dims=2)
            for c in net.node_ids:
                group = vertex_group(net, sys.class_rep(c))
                for perm in group.elements():
                    for _ in range(3):
                        x = rng.standard_normal(sys.layout.total_dim)
                        assert invariance_residual(sys, c, perm, x) <= 1e-12

    def test_relabel_commutes_with_permutation(self, rng):
        # bracketing tails to representatives commutes with vertex-group
        # permutations of the input tuple
        net = mk_network(["A", "B", "B", "B"],
                         [("s", 1, 2), ("s", 1, 3), ("s", 1, 4)])
        col = Colouring.from_parts([1, 2, 3, 4], [(1,), (2, 3), (4,)])
        bracket = {1: 1, 2: 2, 3: 2, 4: 4}
        tails = net.input_tails(1)
        group = vertex_group(net, 1)
        for _ in range(20):
            vals = {c: rng.standard_normal(2) for c in net.node_ids}
            for perm in group.elements():
                permuted_then_bracketed = [vals[bracket[tails[perm[j]]]]
                                           for j in range(3)]
                bracketed_then_permuted = [
                    [vals[bracket[t]] for t in tails][perm[j]] for j in range(3)]
                assert all(np.array_equal(a, b) for a, b in
                           zip(permuted_then_bracketed, bracketed_then_permuted))


class TestBalancedFlowInvariance:
    def test_polydiagonal_trapped_ten_periods(self, rng):
        tol_flow = 1e-8
        for net in (four_node_control_net(), uniform_ring(3)):
            sys = _random_admissible(net, rng, dims=2)
            for col in enumerate_balanced(net):
                x0 = random_polydiagonal_point(sys.layout, col.colour_map, rng,
                                               scale=0.7)
                traj = integrate(sys, x0, 10 * 2 * np.pi, h=2e-3, record_every=100)
                worst = max(polydiagonal_distance(sys.layout, col.colour_map, x)
                            for x in traj.states)
                assert worst <= tol_flow

    def test_unbalanced_not_trapped(self, ring, rng):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                               {1: "tanh(u[1][1]) - x[1]",
                                3: "0.5 - x[1]"})
        col = Colouring.monochrome(ring.node_ids)
        assert not is_balanced(ring, col)
        x0 = random_polydiagonal_point(sys.layout, col.colour_map, rng)
        traj = integrate(sys, x0, 20.0, h=2e-3, record_every=100)
        worst = max(polydiagonal_distance(sys.layout, col.colour_map, x)
                    for x in traj.states)
        assert worst > 1e-3


class TestSemicontinuity:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_small_moves_never_coarsen(self, seed):
        rng = np.random.default_rng(seed)
        net = four_node_control_net()
        sys = _random_admissible(net, rng, dims=1)
        # random state with some exact coincidences
        vals = rng.standard_normal(2)
        assign = rng.integers(0, 2, size=4)
        x = np.array([vals[k] for k in assign])
        col_x = detect_synchrony(sys, x[None, :], tol=1e-8)
        gaps = [abs(x[i] - x[j]) for i in range(4) for j in range(i + 1, 4)
                if abs(x[i] - x[j]) > 0]
        if not gaps:
            return
        step = min(gaps) / 3.0
        y = x + rng.uniform(-1, 1, size=4) * step * 0.99 / np.sqrt(4)
        col_y = detect_synchrony(sys, y[None, :], tol=1e-8)
        # the perturbed pattern is finer than (or equal to) the original:
        # small moves may split clusters but never merge distinct values
        assert refines(col_y, col_x)

    def test_detected_orbit_colouring_never_coarsens(self, scenarios):
        from ccnet.admissible import Perturbation, PerturbedSystem
        from ccnet.dynamics import find_periodic_orbit
        s = scenarios["B"]
        base = find_periodic_orbit(s.system, s.x_guess, s.T_guess, h=2e-3)
        col0 = detect_synchrony(s.system, base.samples)
        pert = Perturbation(class_rep=3, z=np.zeros(4), delta=1.0,
                            w=np.array([1.0, 0.0]))
        psys = PerturbedSystem(s.system, [pert], 1e-4)
        orb = find_periodic_orbit(psys, base.anchor, base.period, h=2e-3,
                                  section=(base.section_point, base.section_normal))
        col = detect_synchrony(psys, orb.samples)
        assert compare(col, col0) in (LatticePosition.FINER, LatticePosition.EQUAL)


class TestBumpSupport:
    def test_plain_bump_contract_grid(self, rng, plain_bump):
        z = rng.standard_normal(3)
        w = np.array([1.0, -2.0])
        delta = 0.7
        f = plain_bump(z, delta, w)
        for _ in range(400):
            y = z + rng.uniform(-2.5 * delta, 2.5 * delta, size=3)
            r = np.linalg.norm(y - z)
            v = f(y)
            if r <= delta:
                assert np.array_equal(v, w)
            elif r >= 2 * delta:
                assert np.array_equal(v, np.zeros(2))
            else:
                assert 0.0 <= np.linalg.norm(v) <= np.linalg.norm(w)

    def test_symmetrised_bump_support_is_orbit_union(self, rng):
        net = mk_network(["A", "B", "B"], [("s", 1, 2), ("s", 1, 3)])
        group = vertex_group(net, 1)
        arity = Arity(1, (1, 1))
        sys = AdmissibleSystem(net, {"A": 1, "B": 1},
                               {1: "u[1][1] + u[2][1]", 2: "0"})
        pert = Perturbation(class_rep=1, z=np.array([0.0, 1.5, -0.5]),
                            delta=0.4, w=np.array([1.0]))
        perms = [np.asarray(p) for p in arg_permutations(group, arity)]
        for _ in range(400):
            y = rng.uniform(-2.5, 2.5, size=3)
            value = pert.component_value(sys, y)[0]
            in_union = any(np.linalg.norm(y[p] - pert.z) < 2 * pert.delta
                           for p in perms)
            if not in_union:
                assert value == 0.0
            inside = any(np.linalg.norm(y[p] - pert.z) <= pert.delta
                         for p in perms)
            if inside:
                assert value == 1.0


class TestPhaseReflection:
    def test_wave_pattern_reflects(self, wave, wave_orbit):
        sys, _, _ = wave
        pat = __import__("ccnet.dynamics", fromlist=["detect_phase"]).detect_phase(
            sys, wave_orbit)
        for (c, d), pair in pat.pairs.items():
            mirror = pat.pairs[(d, c)]
            assert pair.full_circle == mirror.full_circle
            for theta, _ in pair.shifts:
                assert mirror.contains((1.0 - theta) % 1.0)
