import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from ccnet.admissible import (AdmissibleSystem, CompiledField, FlowDiverged,
                              Perturbation, PerturbedSystem)
from ccnet.dynamics import (ORBIT_SAMPLES, PHASE_GRID, CollapseToEquilibrium,
                            NoConvergence, PairShifts, PeriodicOrbit, PhasePattern,
                            Trajectory, _sorted_eigvals, _steps_for,
                            _trig_resample, detect_phase, detect_steady_nodes,
                            detect_synchrony, find_periodic_orbit, floquet,
                            integrate, is_hyperbolic, monodromy_matrix,
                            orbit_from_point, upstream_closure)
from ccnet.library import (HOPF, case_study_scenarios, control_scenario,
                           hopf_coupled, hopf_system, mixed_ring_wave_system,
                           ring_wave_system, rotation_system, three_node_ring,
                           two_max_component_system, uniform_ring)
from ccnet.network import mk_network


class TestIntegrate:
    def test_zero_field_constant(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "0", 3: "0"})
        traj = integrate(sys, [1.0, 2.0, 3.0], 5.0)
        assert np.array_equal(traj.states[-1], traj.states[0])

    def test_planar_rotation_returns(self):
        traj = integrate(rotation_system(), [1.0, 0.0], 2 * np.pi, h=1e-3)
        assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-6

    def test_hopf_attracts_to_unit_circle(self, hopf):
        traj = integrate(hopf, [0.1, 0.0], 50.0, h=1e-3, record_every=1000)
        assert abs(np.linalg.norm(traj.states[-1]) - 1.0) < 1e-6

    def test_blowup_guard(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "x[1]^3", 3: "x[1]^3"})
        from ccnet.admissible import FlowDiverged
        with pytest.raises(FlowDiverged):
            integrate(sys, [2.0, 2.0, 2.0], 50.0)

    def test_error_estimate_reported(self, hopf):
        traj = integrate(hopf, [0.5, 0.0], 1.0, h=1e-2)
        assert 0 < traj.error_estimate < 1e-8


class TestFlowDriver:
    """flow and flow_record share one RK4 driver."""

    @staticmethod
    def _fields(scenario):
        pert = Perturbation(class_rep=1, z=np.array([1.0, 0.0, 1.0, 0.0]),
                            delta=0.8, w=np.array([1.0, 0.0]))
        return (scenario.system.compiled,
                PerturbedSystem(scenario.system, [pert], 0.3).compiled)

    def test_record_rows_are_flow_endpoints(self, scenarios):
        a = scenarios["A"]
        h, nsteps, every = 2e-3, 300, 7
        finals = []
        for field in self._fields(a):
            traj = field.flow_record(a.x_guess, h, nsteps, every)
            assert traj.shape == (nsteps // every + 1, 6)
            for i, row in enumerate(traj):
                assert np.array_equal(row, field.flow(a.x_guess, h, i * every))
            finals.append(field.flow(a.x_guess, h, nsteps))
        assert not np.array_equal(*finals)  # the bump is active

    def test_diverging_flow_and_record_raise(self, ring):
        # x' = x passes the 1e8 guard near t = 18; x' = x^3 overflows
        for comp, match in (("x[1]", "blow-up guard"), ("x[1]^3", None)):
            field = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                                     {1: comp, 3: comp}).compiled
            with pytest.raises(FlowDiverged, match=match):
                field.flow(np.full(3, 2.0), 1e-2, 100000)
            with pytest.raises(FlowDiverged, match=match):
                field.flow_record(np.full(3, 2.0), 1e-2, 100000, 10)

    def test_eval_on_empty_pack_is_rhs(self, scenarios, rng):
        field = scenarios["A"].system.compiled
        assert field.pack[0].shape == (1,)
        for _ in range(5):
            x = rng.standard_normal(6)
            out = np.empty(6)
            field.rhs(x, out)
            assert np.array_equal(field.eval(x), out)

    @pytest.mark.parametrize("comps, x0", [
        # ZeroDivisionError on Python floats (NumPy gave inf)
        ({1: "1/x[1]", 3: "1/x[1]"}, [0.0, 0.0, 0.0]),
        # OverflowError from math.exp
        ({1: "exp(x[1])", 3: "exp(x[1])"}, [800.0, 800.0, 800.0]),
        # inf - inf: a NaN in the last coordinate only, the others stay 0
        ({1: "0", 3: "x[1]^4 - x[1]^4"}, [0.0, 0.0, 1e100]),
    ], ids=["division-by-zero", "exp-overflow", "nan-in-last-coordinate"])
    def test_float_arithmetic_divergence_is_typed(self, ring, comps, x0):
        field = AdmissibleSystem(ring, {"P": 1, "Q": 1}, comps).compiled
        with pytest.raises(FlowDiverged, match="non-finite"):
            field.flow(np.array(x0), 1e-2, 100)
        with pytest.raises(FlowDiverged, match="non-finite"):
            field.flow_record(np.array(x0), 1e-2, 100, 10)

    def test_eval_keeps_numpy_inf_on_division_by_zero(self, ring):
        field = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                                 {1: "1/x[1]", 3: "x[1]^-2"}).compiled
        assert field.eval(np.array([0.0, 1.0, 0.0])).tolist() == [np.inf, 1.0, np.inf]

    def test_guard_sees_nan_in_any_coordinate(self):
        from ccnet import _compile
        nan, inf = float("nan"), float("inf")
        assert _compile._guard([0.0, nan, 2e8]) == _compile.NONFINITE
        assert _compile._guard([inf, 1.0, nan]) == _compile.NONFINITE
        assert _compile._guard([1.0, -inf]) == _compile.BLOWUP
        assert _compile._guard([1.0, -2e8]) == _compile.BLOWUP
        assert _compile._guard([1.0, -1e8]) == _compile.OK


def _reference_bumps(x, out, row_start, gather, arg_len, out_off, out_dim,
                     perm_start, perms, z, inv_d2, w):
    """The bump loop as it ran on the NumPy pack, for the list version to
    be compared against."""
    from ccnet._compile import _psi
    for b in range(row_start.shape[0] - 1):
        for r in range(row_start[b], row_start[b + 1]):
            rest = 1.0
            for p in range(perm_start[b], perm_start[b + 1]):
                s = 0.0
                for j in range(arg_len[b]):
                    d = x[gather[r, perms[p, j]]] - z[b, j]
                    s += d * d
                rest *= 1.0 - _psi(s * inv_d2[b])
                if rest == 0.0:
                    break
            if 1.0 - rest != 0.0:
                for i in range(out_dim[b]):
                    out[out_off[r] + i] += (1.0 - rest) * w[b, i]


def _reference_flow(field, x0, h, nsteps, every):
    """The slow reference for the list driver: RK4 with NumPy vector ops,
    the rhs and the bumps on np.float64 scalars from the NumPy pack."""

    def f(y):
        out = np.empty(len(y))
        field.rhs(y, out)
        _reference_bumps(y, out, *field.pack)
        return out

    x = np.array(x0, dtype=float)
    rows = [x]
    for step in range(nsteps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % every == 0:
            rows.append(x)
    return x, np.array(rows)


@functools.lru_cache(maxsize=None)
def _library_fields() -> tuple:
    """(plain system, bumped system, start state) for every library system,
    a symmetrised S5 fan-in (the gather-loop rhs) and a component with
    sin/cos/exp/tanh and negative powers.  Each bump is centred on the
    arguments of its class representative at the start state."""
    from ccnet.quotient import double, doubled_system
    wave = ring_wave_system(0.2)[0]
    fan_in = mk_network(["A"] + ["B"] * 5, [("s", 1, t) for t in range(2, 7)])
    pair = mk_network(["H", "H"], [("s", 1, 2), ("s", 2, 1)])
    systems = [hopf_system(), rotation_system(),
               two_max_component_system(True), two_max_component_system(False),
               wave, ring_wave_system(0.2, n=5)[0],
               mixed_ring_wave_system(0.2)[0], control_scenario().system,
               doubled_system(wave, double(wave.network)),
               AdmissibleSystem(
                   fan_in, {"A": 1, "B": 1},
                   {1: "u[1][1]*u[2][1]^2 - x[1] + u[3][1]*u[4][1]*u[5][1]^5",
                    2: "0.5 - x[1]"}, symmetrise=True),
               AdmissibleSystem(pair, {"H": 2}, {1: (
                   "sin(x[1])*cos(u[1][2]) - tanh(x[2]) "
                   "+ exp(-x[1]^2)*(2 + u[1][1]^2)^-1, "
                   "x[1] - 0.1*x[2] + (1.5 + cos(u[1][1]))^-3")})]
    systems += [s.system for s in case_study_scenarios()]
    rng = np.random.default_rng(11)
    out = []
    for sys in systems:
        lay, net = sys.layout, sys.network
        x0 = rng.uniform(-0.8, 0.8, lay.total_dim)
        rep = sys.class_reps[0]
        z = np.concatenate([x0[lay.slice_of(rep)]]
                           + [x0[lay.slice_of(t)] for t in net.input_tails(rep)])
        pert = Perturbation(class_rep=rep, z=z, delta=0.9,
                            w=np.ones(lay.dim_of(rep)))
        out.append((sys, PerturbedSystem(sys, [pert], 0.3), x0))
    return tuple(out)


class TestFlowAgainstNumpyReference:
    """The list driver, eval and evaluate against the NumPy arithmetic they
    replace, bit for bit."""

    def test_flow_and_record_equal_reference(self):
        h, nsteps, every = 1e-2, 40, 7
        for sys, psys, x0 in _library_fields():
            finals = []
            for field in (sys.compiled, psys.compiled):
                x_ref, rows_ref = _reference_flow(field, x0, h, nsteps, every)
                assert np.array_equal(field.flow(x0, h, nsteps), x_ref)
                assert np.array_equal(field.flow_record(x0, h, nsteps, every),
                                      rows_ref)
                finals.append(x_ref)
            assert not np.array_equal(*finals)  # the bump is active

    def test_eval_and_evaluate_equal_numpy_pack(self, rng):
        for sys, psys, x0 in _library_fields():
            field = psys.compiled
            for x in (x0, x0 + 0.05 * rng.standard_normal(len(x0))):
                ref = np.empty(len(x))
                field.rhs(x, ref)
                assert np.array_equal(sys.evaluate(x), ref)
                _reference_bumps(x, ref, *field.pack)
                assert np.array_equal(field.eval(x), ref)
                assert np.array_equal(psys.evaluate(x), ref)


class TestOrbitFinding:
    def test_hopf_period(self, hopf):
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0)
        assert abs(orb.period - 2 * np.pi) < 1e-6
        assert orb.residual < 1e-10

    def test_equilibrium_guess_collapses(self, hopf):
        with pytest.raises(CollapseToEquilibrium):
            find_periodic_orbit(hopf, np.array([0.0, 0.0]), 6.0)

    def test_perturbed_orbit_found_ne_orbit_displacement(self, hopf):
        # continuation stays O(eps) from the unperturbed cycle
        from ccnet.admissible import Perturbation, PerturbedSystem
        base = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0)
        pert = Perturbation(class_rep=1, z=np.array([0.0, 1.2]), delta=0.6,
                            w=np.array([1.0, 0.0]))
        moved = {}
        for eps in (1e-3, 1e-4):
            psys = PerturbedSystem(hopf, [pert], eps)
            orb = find_periodic_orbit(psys, base.anchor, base.period,
                                      section=(base.section_point, base.section_normal))
            moved[eps] = np.linalg.norm(orb.anchor - base.anchor) + abs(orb.period - base.period)
        assert moved[1e-3] < 0.05
        ratio = moved[1e-3] / moved[1e-4]
        assert 3 < ratio < 30  # roughly linear in eps

    def test_bad_guess_does_not_converge(self, hopf):
        with pytest.raises((NoConvergence, CollapseToEquilibrium)):
            find_periodic_orbit(hopf, np.array([50.0, 50.0]), 0.01, max_iter=3)


class TestFloquet:
    def test_hopf_multipliers(self, hopf):
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0)
        mus = floquet(hopf, orb)
        assert abs(mus[0] - 1.0) < 1e-6
        assert abs(mus[1] - np.exp(-4 * np.pi)) / np.exp(-4 * np.pi) < 1e-4

    def test_trivial_multiplier_on_every_found_orbit(self, hopf, wave):
        sys, guess, T = wave
        for s, x, t in ((hopf, np.array([0.9, 0.0]), 6.0), (sys, guess, T)):
            orb = find_periodic_orbit(s, x, t)
            assert abs(orb.multipliers[0] - 1.0) < 1e-5

    def test_flowmap_method_agrees_coarsely(self, hopf):
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0)
        mus_v = floquet(hopf, orb)
        mus_f = _sorted_eigvals(_flowmap_monodromy(hopf, orb.anchor, orb.period,
                                                   orb.step))
        assert abs(mus_v[0] - mus_f[0]) < 1e-6

    def test_fig3_two_unit_multipliers(self, fig3_system):
        x0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        settle = integrate(fig3_system, x0, 40.0, h=1e-3, record_every=4000)
        orb = orbit_from_point(fig3_system, settle.states[-1], 2 * np.pi, tol=1e-8)
        near_one = np.sum(np.abs(orb.multipliers - 1.0) < 1e-3)
        assert near_one == 2


    def test_tied_conjugate_pair_lists_positive_imag_first(self):
        # eight rotation blocks, each a conjugate pair exactly tied in |mu - 1|
        rng = np.random.default_rng(8)
        phi = np.eye(17)
        for b in range(8):
            a, w = rng.uniform(-0.9, 0.9), rng.uniform(0.1, 0.5)
            phi[2 * b:2 * b + 2, 2 * b:2 * b + 2] = [[a, -w], [w, a]]
        mus = _sorted_eigvals(phi)
        assert mus[0] == 1.0
        for k in range(1, 17, 2):
            assert mus[k] == np.conj(mus[k + 1]) and mus[k].imag > 0


class TestLazyMultipliers:
    @pytest.fixture
    def passes(self, monkeypatch):
        """Counts variational passes."""
        count = [0]
        original = CompiledField.flow_variational

        def counted(field, *args, **kwargs):
            count[0] += 1
            return original(field, *args, **kwargs)

        monkeypatch.setattr(CompiledField, "flow_variational", counted)
        return count

    def test_pass_runs_on_first_read_only(self, hopf, passes):
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0, h=1e-2)
        assert passes[0] == 0
        mus = orb.multipliers
        assert passes[0] == 1
        assert orb.multipliers is mus and orb.monodromy.shape == (2, 2)
        assert floquet(hopf, orb) is mus
        is_hyperbolic(hopf, orb)
        assert passes[0] == 1

    def test_floquet_with_other_step_runs_a_pass(self, hopf, passes):
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0, h=1e-2)
        mus = floquet(hopf, orb, h=5e-3)
        assert passes[0] == 1
        assert np.max(np.abs(mus - orb.multipliers)) < 1e-6

    def test_orbit_owns_its_anchor(self, hopf):
        x0 = np.array([1.0, 0.0])
        orb = orbit_from_point(hopf, x0, 2 * np.pi, h=1e-2, tol=1e-6)
        x0[:] = 5.0
        assert abs(orb.multipliers[0] - 1.0) < 1e-5


def _flowmap_monodromy(sys, anchor, T, h):
    """The monodromy by central differences of the time-T flow map, at the
    step and differencing width monodromy_matrix uses."""
    nsteps, h_eff = _steps_for(T, h)
    fd = 1e-6 * max(1.0, float(np.linalg.norm(anchor)))
    n = len(anchor)
    phi = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = fd
        phi[:, j] = (sys.compiled.flow(anchor + e, h_eff, nsteps)
                     - sys.compiled.flow(anchor - e, h_eff, nsteps)) / (2 * fd)
    return phi


def _variational_reference(field, x0, h, nsteps, fd):
    """The variational pass as plain loops over the scalar rhs."""
    n = len(x0)

    def slope(y, p):
        jac = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = fd
            jac[:, j] = (field.eval(y + e) - field.eval(y - e)) / (2.0 * fd)
        jp = np.zeros((n, n))
        for m in range(n):
            jp = jp + jac[:, m:m + 1] * p[m]
        return field.eval(y), jp

    x, phi = np.array(x0, dtype=float), np.eye(n)
    for _ in range(nsteps):
        k1, p1 = slope(x, phi)
        k2, p2 = slope(x + 0.5 * h * k1, phi + 0.5 * h * p1)
        k3, p3 = slope(x + 0.5 * h * k2, phi + 0.5 * h * p2)
        k4, p4 = slope(x + h * k3, phi + h * p3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi = phi + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
    return x, phi


class TestBlockMonodromy:
    """The block variational pass against a scalar-loop reference and
    against differencing the time-T flow."""

    def test_equals_scalar_loop_reference(self, hopf, wave):
        # polynomial fields: the same arithmetic in the same order
        pert = Perturbation(class_rep=1, z=np.array([0.0, 1.2]), delta=0.6,
                            w=np.array([1.0, 0.0]))
        psys = PerturbedSystem(hopf, [pert], 1e-2)
        for sys, x0 in ((psys, np.array([1.0, 0.0])), (wave[0], wave[1])):
            field = sys.compiled
            x, phi = field.flow_variational(x0, 1e-2, 200, 1e-6)
            x_ref, phi_ref = _variational_reference(field, x0, 1e-2, 200, 1e-6)
            assert np.array_equal(x, x_ref) and np.array_equal(phi, phi_ref)

    def test_bumped_orbit_matches_flowmap(self, hopf):
        pert = Perturbation(class_rep=1, z=np.array([0.0, 1.2]), delta=0.6,
                            w=np.array([1.0, 0.0]))
        psys = PerturbedSystem(hopf, [pert], 1e-2)
        orb = find_periodic_orbit(psys, np.array([1.2, 0.0]), 6.0, h=1e-2)
        ref = _flowmap_monodromy(psys, orb.anchor, orb.period, orb.step)
        assert np.max(np.abs(orb.monodromy - ref)) < 1e-8
        unbumped = monodromy_matrix(hopf, orb.anchor, orb.period, h=orb.step)
        assert np.max(np.abs(orb.monodromy - unbumped)) > 1e-4

    def test_doubled_orbit_matches_flowmap(self, wave):
        from ccnet.quotient import double, doubled_system, shear
        sys, guess, T = wave
        orb = find_periodic_orbit(sys, guess, T, h=1e-2)
        dsys = doubled_system(sys, double(sys.network))
        orb2 = orbit_from_point(dsys, shear(orb, 1.0 / 3.0)[0], orb.period,
                                h=1e-2, tol=1e-6)
        ref = _flowmap_monodromy(dsys, orb2.anchor, orb2.period, orb2.step)
        assert orb2.monodromy.shape == (12, 12)
        assert np.max(np.abs(orb2.monodromy - ref)) < 1e-8

    def test_diverging_pass_stops_at_the_guard(self, ring):
        # x' = x passes the 1e8 guard near t = 18; without the periodic
        # check the pass would run to t = 1000 and overflow to inf
        from ccnet import _compile
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "x[1]", 3: "x[1]"})
        with pytest.raises(FlowDiverged, match="blow-up guard"):
            monodromy_matrix(sys, np.ones(3), 1000.0, h=1e-2)
        field = sys.compiled
        x, _, status = _compile.rk4_variational(field.rhs_block, *field.pack,
                                                np.ones(3), 1e-2, 100000, 1e-6)
        assert status == _compile.BLOWUP
        assert 1e8 < np.max(np.abs(x)) < 1e10


class TestHyperbolicity:
    def test_hopf_hyperbolic(self, hopf):
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0)
        rep = is_hyperbolic(hopf, orb)
        assert rep.verdict == "hyperbolic" and not rep.warnings

    def test_fig3_structural_warning(self, fig3_system, fig3_net):
        x0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        settle = integrate(fig3_system, x0, 40.0, h=1e-3, record_every=4000)
        orb = orbit_from_point(fig3_system, settle.states[-1], 2 * np.pi, tol=1e-8)
        rep = is_hyperbolic(fig3_system, orb, net=fig3_net)
        assert rep.verdict == "non-hyperbolic"
        assert rep.structural_obstruction
        assert any("maximal transitive" in w for w in rep.warnings)

    def test_sheared_torus_quasi_hyperbolic(self, hopf):
        from ccnet.quotient import double, doubled_system, shear
        orb = find_periodic_orbit(hopf, np.array([1.2, 0.0]), 6.0)
        dsys = doubled_system(hopf, double(hopf.network))
        sheared = shear(orb, 0.3)
        orb2 = orbit_from_point(dsys, sheared[0], orb.period, tol=1e-8)
        rep = is_hyperbolic(dsys, orb2, net=dsys.network)
        assert rep.verdict == "non-hyperbolic"
        assert rep.quasi_hyperbolic
        assert rep.near_one == 2


class TestSynchronyDetection:
    def test_exact_diagonal(self, scenarios):
        s = scenarios["A"]
        orb = find_periodic_orbit(s.system, s.x_guess, s.T_guess)
        col = detect_synchrony(s.system, orb.samples)
        assert col == s.colouring

    def test_decoupled_generic_phases_trivial(self):
        # isolated same-type nodes share one component, yet generic phases
        # keep them unsynchronised
        net = mk_network(["H", "H"], [])
        sys = AdmissibleSystem(net, {"H": 2}, {1: HOPF})
        x0 = np.array([1.0, 0.0, np.cos(1.1), np.sin(1.1)])
        traj = integrate(sys, x0, 2 * np.pi, h=1e-3, record_every=10)
        col = detect_synchrony(sys, traj)
        assert col.parts == ((1,), (2,))

    def test_threshold_semantics(self):
        net = mk_network(["H", "H"], [])
        sys = AdmissibleSystem(net, {"H": 1}, {1: "0"})
        states = np.array([[0.0, 1e-3], [0.0, 1e-3]])
        col = detect_synchrony(sys, states, tol=1e-8)
        assert col.parts == ((1,), (2,))  # gap 1e-3 >> tol
        states = np.array([[0.0, 1e-10], [0.0, 1e-10]])
        col = detect_synchrony(sys, states, tol=1e-8)
        assert col.parts == ((1, 2),)

    def test_merges_transitively(self):
        # (1, 2) and (2, 3) are within tol; (1, 3), 1.2e-8 apart, is not
        net = mk_network(["H", "H", "H"], [])
        sys = AdmissibleSystem(net, {"H": 1}, {1: "0"})
        states = np.array([[0.0, 0.6e-8, 1.2e-8]] * 2)
        assert float(np.max(np.abs(states[:, 2] - states[:, 0]))) > 1e-8
        col = detect_synchrony(sys, states, tol=1e-8)
        assert col.parts == ((1, 2, 3),)


class TestPhaseDetection:
    def test_wave_shift_one_third(self, wave, wave_orbit):
        sys, _, _ = wave
        pat = detect_phase(sys, wave_orbit)
        assert pat.shifts(1, 2).contains(1.0 / 3.0)
        thetas = pat.shifts(1, 2).thetas()
        assert min(abs(t - 1 / 3) for t in thetas) < 1e-6

    def test_self_shift_zero(self, wave, wave_orbit):
        sys, _, _ = wave
        pat = detect_phase(sys, wave_orbit)
        for c in (1, 2, 3):
            assert pat.shifts(c, c).contains(0.0)

    def test_reflection_symmetry(self, wave, wave_orbit):
        sys, _, _ = wave
        pat = detect_phase(sys, wave_orbit)
        for (c, d), pair in pat.pairs.items():
            if pair.full_circle:
                assert pat.shifts(d, c).full_circle
                continue
            for theta, _ in pair.shifts:
                assert pat.shifts(d, c).contains((1.0 - theta) % 1.0)

    def test_steady_nodes_full_circle(self, scenarios):
        s = scenarios["D"]  # nodes 2, 3 rest at the origin
        orb = find_periodic_orbit(s.system, s.x_guess, s.T_guess)
        pat = detect_phase(s.system, orb)
        assert pat.shifts(2, 2).full_circle
        assert pat.shifts(2, 3).full_circle
        assert not pat.shifts(1, 1).full_circle
        assert not pat.shifts(1, 2).full_circle and not pat.shifts(1, 2).shifts


def _brute_force_phase(sys, orbit, tol=1e-6, steady_tol=1e-8) -> PhasePattern:
    """detect_phase with the exact sup distance at every one of the
    PHASE_GRID shifts: the scan the FFT bound prunes, kept as its oracle."""
    lay = sys.layout
    stride = max(1, orbit.samples.shape[0] // PHASE_GRID)
    Xg = orbit.samples[::stride]
    grid = Xg.shape[0]
    blocks = {c: Xg[:, lay.slice_of(c)] for c in lay.node_ids}
    amp = {c: float(np.max(np.linalg.norm(b - b.mean(axis=0), axis=1)))
           for c, b in blocks.items()}
    steady = {c for c in lay.node_ids if amp[c] < steady_tol}
    pairs = {}
    for cls in sys.network.state_partition:
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

                def resid(theta, d=d, bc=bc):
                    shifted = orbit.shifted(theta, lay.slice_of(d))[::stride]
                    return float(np.max(np.linalg.norm(bc - shifted, axis=1)))

                found = []
                for s in range(grid):
                    if D[s] > coarse:
                        continue
                    if D[s] <= D[(s - 1) % grid] and D[s] <= D[(s + 1) % grid]:
                        a, b = (s - 1) / grid, (s + 1) / grid
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
    return PhasePattern(period=orbit.period, pairs=pairs)


@functools.lru_cache(maxsize=None)
def _coarse_orbits() -> dict:
    """The orbit-floquet benchmark's systems at its step h = 2e-2, located
    from their exact guesses: name -> (system, orbit)."""
    ctrl = control_scenario(0.1)
    cases = {f"ring{n}": ring_wave_system(0.2, n) for n in (3, 4, 5)}
    cases["control"] = (ctrl.system, ctrl.x_guess, 2 * np.pi)
    cases["hopf"] = (hopf_system(), np.array([1.0, 0.0]), 2 * np.pi)
    return {name: (sys_, find_periodic_orbit(sys_, guess, T, h=2e-2))
            for name, (sys_, guess, T) in cases.items()}


def _with_samples(orbit: PeriodicOrbit, samples: np.ndarray) -> PeriodicOrbit:
    m = samples.shape[0]
    return dataclasses.replace(orbit, samples=samples,
                               times=np.arange(m) * (orbit.period / m))


class TestPhaseScanAgainstBruteForce:
    """The FFT-bounded scan gives the whole-grid scan's patterns, bit for bit."""

    @pytest.mark.parametrize("name", ["ring3", "ring4", "ring5", "control"])
    def test_coarse_orbits(self, name):
        sys_, orb = _coarse_orbits()[name]
        assert detect_phase(sys_, orb) == _brute_force_phase(sys_, orb)

    def test_steady_nodes(self, scenarios):
        s = scenarios["D"]
        orb = find_periodic_orbit(s.system, s.x_guess, s.T_guess, h=2e-2)
        pat = detect_phase(s.system, orb)
        assert pat.shifts(2, 3).full_circle
        assert pat == _brute_force_phase(s.system, orb)

    @staticmethod
    def _altered_waves(orb) -> dict:
        """The 3-ring wave's orbit, altered: name -> (orbit, tol)."""
        node1 = orb.samples[:, :2]
        amp = float(np.max(np.linalg.norm(node1 - node1.mean(axis=0), axis=1)))
        noisy = orb.samples + 1e-3 * np.random.default_rng(5).standard_normal(orb.samples.shape)
        # node 2 displaced by 3% of the amplitude: the wave shift's sup
        # distance lies between coarse / 2 and coarse = tol * amp
        displaced = orb.samples.copy()
        displaced[:, 2] += 0.03 * amp
        # a 20th harmonic on every node: grid neighbours of the wave shift
        # are pruned, so its local-minimum test reads their +inf
        t = np.arange(ORBIT_SAMPLES) / ORBIT_SAMPLES
        sharp = np.hstack([np.stack([np.cos(2 * np.pi * u) + 0.3 * np.cos(40 * np.pi * u),
                                     np.sin(2 * np.pi * u) + 0.3 * np.sin(40 * np.pi * u)],
                                    axis=1) for u in (t, t - 1 / 3, t - 2 / 3)])
        return {"offset": (_with_samples(orb, orb.samples + 1e4), 1e-6),
                "noise": (_with_samples(orb, noisy), 1e-6),
                "noise-loose-tol": (_with_samples(orb, noisy), 1e-2),
                "odd-grid": (_with_samples(orb, _trig_resample(orb.samples, 341)), 1e-6),
                "near-coarse": (_with_samples(orb, displaced), 0.05),
                "sharp": (_with_samples(orb, sharp), 1e-6)}

    @pytest.mark.parametrize("variant", ["offset", "noise", "noise-loose-tol", "odd-grid",
                                         "near-coarse", "sharp"])
    def test_altered_wave(self, variant):
        sys_, orb = _coarse_orbits()["ring3"]
        altered, tol = self._altered_waves(orb)[variant]
        pat = detect_phase(sys_, altered, tol=tol)
        assert pat == _brute_force_phase(sys_, altered, tol=tol)
        if variant != "noise":  # 1e-3 noise is above the default tolerance
            thetas = pat.shifts(1, 2).thetas()
            assert min(abs(t - 1 / 3) for t in thetas) < 1e-3

    def test_exact_sups_per_pair(self, monkeypatch):
        # the bound leaves about 5 of 512 shifts per pair; a scan of the
        # whole grid would make 512 np.roll calls per pair
        sys_, orb = _coarse_orbits()["ring3"]
        calls = []
        roll = np.roll

        def counted_roll(*args, **kwargs):
            calls.append(1)
            return roll(*args, **kwargs)

        monkeypatch.setattr(np, "roll", counted_roll)
        pat = detect_phase(sys_, orb)
        assert len(pat.pairs) == 9
        assert 9 <= len(calls) <= 16 * 9

    @pytest.mark.parametrize("name", ["ring3", "ring4", "ring5", "control", "hopf"])
    def test_self_shift_snaps_to_zero(self, name):
        # a golden section ends within rounding of 0 from either side
        sys_, orb = _coarse_orbits()[name]
        pat = detect_phase(sys_, orb)
        for c in sys_.layout.node_ids:
            assert pat.shifts(c, c).thetas() == (0.0,)


def _trig_sum(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant of the uniform periodic samples x
    (rows) at times t in units of the period, summed mode by mode; an even
    count's Nyquist mode is split evenly between +-m/2."""
    m = x.shape[0]
    c = np.fft.fft(x, axis=0) / m
    out = np.zeros((len(t), x.shape[1]))
    for j, k in enumerate(np.fft.fftfreq(m, 1.0 / m)):
        wave = np.exp(2j * np.pi * k * t)[:, None]
        if 2 * abs(k) == m:
            wave = wave.real
        out += (c[j] * wave).real
    return out


def _orbit_of(samples: np.ndarray, period: float = 2.0) -> PeriodicOrbit:
    m = samples.shape[0]
    return PeriodicOrbit(anchor=samples[0], period=period,
                         section_point=samples[0], section_normal=samples[1],
                         times=np.arange(m) * (period / m), samples=samples,
                         residual=0.0, step=period / m, system=None)


class TestTrigInterpolant:
    """The one orbit representation: _trig_resample builds the samples,
    PeriodicOrbit.shifted reads between them."""

    @pytest.mark.parametrize("m, n", [(341, 1023), (512, ORBIT_SAMPLES),
                                      (3069, 1023), (2048, ORBIT_SAMPLES)])
    def test_grid_nodes_reproduced(self, m, n):
        # odd and even m, below and above the target count; every node of
        # the coarser grid is a node of the finer one
        x = np.random.default_rng(m).standard_normal((m, 3))
        y = _trig_resample(x, n)
        if n > m:
            assert np.max(np.abs(y[::n // m] - x)) < 1e-13
        else:
            assert np.max(np.abs(y - x[::m // n])) < 1e-13

    @pytest.mark.parametrize("m", [341, 512, 1537, 2048])
    def test_resample_equals_trig_sum(self, m):
        x = np.random.default_rng(m).standard_normal((m, 2))
        y = _trig_resample(x, ORBIT_SAMPLES)
        ref = _trig_sum(x, np.arange(ORBIT_SAMPLES) / ORBIT_SAMPLES)
        assert np.max(np.abs(y - ref)) < 1e-11

    @pytest.mark.parametrize("m", [341, 512])
    def test_shift_reads_back_the_grid(self, m):
        x = np.random.default_rng(m).standard_normal((m, 2))
        orb = _orbit_of(_trig_resample(x, ORBIT_SAMPLES))
        for j in (1, 7, m // 2, m - 1):
            assert np.max(np.abs(orb.shifted(j / m)[0] - x[j])) < 1e-13

    def test_whole_sample_shift_is_roll(self):
        samples = np.random.default_rng(3).standard_normal((ORBIT_SAMPLES, 4))
        orb = _orbit_of(samples)
        for j in (1, 3, 512, 1000):
            rolled = np.roll(samples, -j, axis=0)
            assert np.max(np.abs(orb.shifted(j / ORBIT_SAMPLES) - rolled)) < 1e-14
            assert np.max(np.abs(orb.shifted(j / ORBIT_SAMPLES, slice(1, 3))
                                 - rolled[:, 1:3])) < 1e-14

    @pytest.mark.parametrize("theta", [0.123456, 0.5 + 1e-7, 0.77, -0.3, 1.4])
    def test_shift_equals_trig_sum(self, theta):
        samples = np.random.default_rng(4).standard_normal((ORBIT_SAMPLES, 4))
        orb = _orbit_of(samples)
        t = np.arange(ORBIT_SAMPLES) / ORBIT_SAMPLES + theta
        ref = _trig_sum(samples, t)
        assert np.max(np.abs(orb.shifted(theta) - ref)) < 1e-11
        assert np.max(np.abs(orb.shifted(theta, slice(2, 4)) - ref[:, 2:4])) < 1e-11

    def test_wave_phase_residuals_at_coarse_step(self, wave):
        # an exact interpolant leaves rounding only (cubic splines: 5.7e-10)
        sys, guess, T = wave
        orb = find_periodic_orbit(sys, guess, T, h=2e-2)
        pat = detect_phase(sys, orb)
        for c in (1, 2, 3):
            shifts = pat.shifts(c, c % 3 + 1).shifts
            assert len(shifts) == 1 and abs(shifts[0][0] - 1 / 3) < 1e-9
        residuals = [r for pair in pat.pairs.values() for _, r in pair.shifts]
        assert len(residuals) == 9 and max(residuals) < 1e-11

    def test_agrees_with_two_spline_pipeline(self, wave):
        # the cubic-spline representation this replaces, to its own error:
        # 1e-9 at h = 2e-2
        interpolate = pytest.importorskip("scipy.interpolate")
        sys, guess, T = wave
        orb = find_periodic_orbit(sys, guess, T, h=2e-2)
        nsteps = int(np.ceil(orb.period / 2e-2))
        raw = sys.compiled.flow_record(orb.anchor, orb.period / nsteps, nsteps, 1)
        raw[-1] = raw[0]
        first = interpolate.CubicSpline(np.arange(nsteps + 1) * (orb.period / nsteps),
                                        raw, bc_type="periodic")
        samples = first(orb.times)
        assert np.max(np.abs(orb.samples - samples)) < 1e-9
        second = interpolate.CubicSpline(np.append(orb.times, orb.period),
                                         np.vstack([samples, samples[:1]]),
                                         bc_type="periodic")
        theta = 1 / 3 + 1e-4
        spline_read = second(np.mod(orb.times + theta * orb.period, orb.period))
        assert np.max(np.abs(orb.shifted(theta) - spline_read)) < 1e-9

    def test_package_imports_without_scipy(self):
        import ccnet
        src = os.path.dirname(os.path.dirname(ccnet.__file__))
        code = ("import sys, ccnet, ccnet.library; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.strip() == "[]"


class TestSteadyAndUpstream:
    def test_constant_trajectory_all_steady(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "0", 3: "0"})
        traj = integrate(sys, [1.0, 2.0, 3.0], 1.0)
        assert detect_steady_nodes(sys, traj) == frozenset({1, 2, 3})

    def test_fig3_steady_set_and_closure(self, fig3_steady_system, fig3_net):
        x0 = np.array([0.0, 0.0, 1.0, 0.0, 0.2, 0.1])
        settle = integrate(fig3_steady_system, x0, 40.0, h=1e-3, record_every=4000)
        orb = find_periodic_orbit(fig3_steady_system, settle.states[-1], 2 * np.pi)
        steady = detect_steady_nodes(fig3_steady_system, orb.samples)
        assert steady == frozenset({1})
        assert upstream_closure(fig3_net, [3]) == frozenset({1, 2, 3})
        assert upstream_closure(fig3_net, steady) == steady

    def test_transitive_ring_closure_is_everything(self, uni3):
        for c in (1, 2, 3):
            assert upstream_closure(uni3, [c]) == frozenset({1, 2, 3})
