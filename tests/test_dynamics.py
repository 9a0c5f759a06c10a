import functools

import numpy as np
import pytest

from ccnet.admissible import (AdmissibleSystem, CompiledField, FlowDiverged,
                              Perturbation, PerturbedSystem)
from ccnet.dynamics import (CollapseToEquilibrium, NoConvergence, Trajectory,
                            detect_phase, detect_steady_nodes,
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
        return (scenario.system.flow_args(),
                PerturbedSystem(scenario.system, [pert], 0.3).flow_args())

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
                                     {1: comp, 3: comp}).flow_args()
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
        field = AdmissibleSystem(ring, {"P": 1, "Q": 1}, comps).flow_args()
        with pytest.raises(FlowDiverged, match="non-finite"):
            field.flow(np.array(x0), 1e-2, 100)
        with pytest.raises(FlowDiverged, match="non-finite"):
            field.flow_record(np.array(x0), 1e-2, 100, 10)

    def test_eval_keeps_numpy_inf_on_division_by_zero(self, ring):
        field = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                                 {1: "1/x[1]", 3: "x[1]^-2"}).flow_args()
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
            for field in (sys.flow_args(), psys.flow_args()):
                x_ref, rows_ref = _reference_flow(field, x0, h, nsteps, every)
                assert np.array_equal(field.flow(x0, h, nsteps), x_ref)
                assert np.array_equal(field.flow_record(x0, h, nsteps, every),
                                      rows_ref)
                finals.append(x_ref)
            assert not np.array_equal(*finals)  # the bump is active

    def test_eval_and_evaluate_equal_numpy_pack(self, rng):
        for sys, psys, x0 in _library_fields():
            field = psys.flow_args()
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
        mus_v = floquet(hopf, orb, method="variational")
        mus_f = floquet(hopf, orb, method="flowmap")
        assert abs(mus_v[0] - mus_f[0]) < 1e-6

    def test_fig3_two_unit_multipliers(self, fig3_system):
        x0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        settle = integrate(fig3_system, x0, 40.0, h=1e-3, record_every=4000)
        orb = orbit_from_point(fig3_system, settle.states[-1], 2 * np.pi, tol=1e-8)
        near_one = np.sum(np.abs(orb.multipliers - 1.0) < 1e-3)
        assert near_one == 2


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
            field = sys.flow_args()
            x, phi = field.flow_variational(x0, 1e-2, 200, 1e-6)
            x_ref, phi_ref = _variational_reference(field, x0, 1e-2, 200, 1e-6)
            assert np.array_equal(x, x_ref) and np.array_equal(phi, phi_ref)

    def test_bumped_orbit_matches_flowmap(self, hopf):
        pert = Perturbation(class_rep=1, z=np.array([0.0, 1.2]), delta=0.6,
                            w=np.array([1.0, 0.0]))
        psys = PerturbedSystem(hopf, [pert], 1e-2)
        orb = find_periodic_orbit(psys, np.array([1.2, 0.0]), 6.0, h=1e-2)
        ref = monodromy_matrix(psys, orb.anchor, orb.period, h=orb.step,
                               method="flowmap")
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
        ref = monodromy_matrix(dsys, orb2.anchor, orb2.period, h=orb2.step,
                               method="flowmap")
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
