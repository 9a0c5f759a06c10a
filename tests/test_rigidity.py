from types import SimpleNamespace

import numpy as np
import pytest

from ccnet.colouring import Colouring, is_balanced
from ccnet.dynamics import detect_phase, detect_synchrony, find_periodic_orbit
from ccnet.library import (control_scenario, three_node_ring,
                           two_max_component_system, uniform_ring)
from ccnet.rigidity import (ProbeConfig, ProbeError, Tolerances, _select_t0,
                            case_study_3ring, control_probe, find_conflict,
                            full_oscillation_probe, hk_report, phase_probe,
                            rigidity_probe)


@pytest.fixture(scope="module")
def case_reports():
    return case_study_3ring(epsilons=(1e-3, 1e-4), ensemble=2, seed=0, h=2e-3)


@pytest.fixture(scope="module")
def control_report():
    return control_probe(epsilons=(1e-3, 1e-4), ensemble=3, seed=0, h=2e-3)


class TestConflictSelection:
    def test_all_synchronous_conflict(self, ring):
        # colour everything alike: node 2 agrees with node 1, node 3 differs
        col = Colouring.monochrome(ring.node_ids)
        n, r, case = find_conflict(ring, col, (1,))
        assert (n, r, case) == (3, 1, "a")

    def test_case_c_on_partial_synchrony(self, ring):
        col = Colouring.from_parts(ring.node_ids, [(1, 2), (3,)])
        n, r, case = find_conflict(ring, col, (1, 3))
        assert (n, r, case) == (2, 1, "c")

    def test_balanced_has_no_conflict(self, control_net):
        col = Colouring.from_parts(control_net.node_ids, [(1, 3), (2, 4)])
        assert find_conflict(control_net, col, (1, 2)) is None

    def test_case_b_exists(self):
        from ccnet.network import mk_network
        # nodes 1, 2, 3 alike (one s-input); colour {1,3},{2}; reps {1,2};
        # node 3 conflicts with rep 1 only through its tail colour, and is
        # input equivalent to rep 2 as well -> the pair is (3, 1), case c;
        # retyping node 3's input to land on rep 2 instead gives case b
        net = mk_network(["N", "N", "N"],
                         [("s", 1, 2), ("s", 2, 1), ("s", 3, 1), ("t", 3, 3)])
        col = Colouring.from_parts([1, 2, 3], [(1, 3), (2,)])
        hit = find_conflict(net, col, (1, 2))
        assert hit is not None and hit[2] in ("a", "b")


class TestSelectT0:
    """t0 maximises the representative separation; on rotating waves that
    separation is constant up to rounding, and the earliest sample wins."""

    @staticmethod
    def _t0s(scenario):
        sys = scenario.system
        orb = find_periodic_orbit(sys, scenario.x_guess, scenario.T_guess, h=2e-3)
        col = detect_synchrony(sys, orb.samples)
        rng = np.random.default_rng(1)
        out = []
        for noise in (0.0, 1e-9, 1e-9):
            orb.samples = orb.samples + noise * rng.standard_normal(orb.samples.shape)
            report = SimpleNamespace()
            _select_t0(report, sys, orb, orb.samples, col, 1e-8)
            out.append(report.t0)
        return out

    @pytest.mark.parametrize("name", ["C", "control"])
    def test_constant_separation_picks_time_zero(self, name, scenarios, control):
        scenario = control if name == "control" else scenarios[name]
        assert self._t0s(scenario) == [0.0, 0.0, 0.0]

    def test_unique_maximum_kept(self, scenarios):
        t0s = self._t0s(scenarios["B"])
        assert t0s[0] == pytest.approx(3.92699, abs=1e-5)
        assert t0s == [t0s[0]] * 3


class TestCaseStudies:
    def test_all_four_break(self, case_reports):
        assert set(case_reports) == {"A", "B", "C", "D"}
        for name, rep in case_reports.items():
            assert rep.aborted is None, f"case {name} aborted: {rep.aborted}"
            assert rep.classification == "pattern-broken", name
            assert rep.balanced is False

    def test_detected_patterns_match_engineering(self, case_reports, scenarios):
        for name, rep in case_reports.items():
            assert rep.detected == scenarios[name].colouring

    def test_case_b_uses_good_transversal(self, case_reports):
        assert case_reports["B"].representatives == (1, 3)
        assert case_reports["B"].conflict_pair == (2, 1)
        assert case_reports["B"].conflict_case == "c"

    def test_gap_well_above_detection_threshold(self, case_reports):
        tol_sync = 1e-8
        for name, rep in case_reports.items():
            proof = [o for o in rep.outcomes if o.label == "proof" and o.orbit_found]
            assert proof, name
            assert all(o.gap > 10 * tol_sync for o in proof), name

    def test_constraint_residual_scales_with_epsilon(self, case_reports):
        for name, rep in case_reports.items():
            by_eps = {}
            for o in rep.outcomes:
                if o.label == "proof" and o.orbit_found:
                    by_eps[o.epsilon] = o.constraint_residual
            ratio = by_eps[1e-3] / by_eps[1e-4]
            assert 3 < ratio < 30, name

    def test_displacement_roughly_linear_in_epsilon(self, case_reports):
        for name, rep in case_reports.items():
            by_eps = {}
            for o in rep.outcomes:
                if o.label == "proof" and o.orbit_found:
                    by_eps[o.epsilon] = max(o.displacement, 1e-15)
            ratio = by_eps[1e-3] / by_eps[1e-4]
            assert ratio < 31, name  # within factor ~3 of linear scaling


class TestControl:
    def test_balanced_pattern_persists(self, control_report):
        rep = control_report
        assert rep.aborted is None
        assert rep.balanced is True
        assert rep.classification == "pattern-balanced-persists"
        assert not rep.violation_candidate

    def test_gaps_below_tolerance(self, control_report):
        for o in control_report.outcomes:
            assert o.orbit_found
            assert o.gap < 1e-8

    def test_deterministic_given_seed(self, control):
        cfg = dict(epsilons=(1e-3,), ensemble=2, seed=7, h=2e-3)
        a = control_probe(**cfg)
        b = control_probe(**cfg)
        assert a.classification == b.classification
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.gap == ob.gap
            assert oa.displacement == ob.displacement
            assert oa.colouring == ob.colouring


class TestInvariantOverBuiltins:
    def test_broken_iff_unbalanced(self, case_reports, control_report):
        for rep in list(case_reports.values()) + [control_report]:
            if rep.classification == "pattern-broken":
                assert rep.balanced is False
            if rep.balanced:
                assert rep.classification == "pattern-balanced-persists"


class TestPhaseProbe:
    def test_symmetric_ring_wave_persists(self, wave):
        sys, guess, T = wave
        cfg = ProbeConfig(system=sys, x_guess=guess, T_guess=T,
                          epsilons=(1e-3, 1e-4), ensemble=2, seed=3, h=2e-3)
        rep = phase_probe(cfg, 1.0 / 3.0)
        assert rep.aborted is None
        assert rep.balanced is True
        assert rep.classification == "pattern-balanced-persists"

    def test_mixed_ring_wave_breaks(self, mixed_wave):
        sys, guess, T = mixed_wave
        cfg = ProbeConfig(system=sys, x_guess=guess, T_guess=T,
                          epsilons=(1e-3, 1e-4), ensemble=2, seed=4, h=2e-3)
        rep = phase_probe(cfg, 1.0 / 3.0)
        assert rep.aborted is None
        assert rep.balanced is False
        assert rep.classification == "pattern-broken"
        assert rep.conflict_case in ("a", "b", "c")

    def test_undetected_theta_aborts(self, wave):
        sys, guess, T = wave
        cfg = ProbeConfig(system=sys, x_guess=guess, T_guess=T,
                          epsilons=(1e-3,), ensemble=2, seed=3, h=2e-3)
        rep = phase_probe(cfg, 0.41)
        assert rep.aborted is not None

    def test_theta_zero_on_synchronous_orbit(self, scenarios):
        s = scenarios["A"]
        cfg = ProbeConfig(system=s.system, x_guess=s.x_guess, T_guess=s.T_guess,
                          epsilons=(1e-3, 1e-4), ensemble=2, seed=5, h=2e-3)
        rep = phase_probe(cfg, 0.0)
        assert rep.aborted is None
        # theta = 0 synchrony on the diagonal is the unbalanced all-one
        # pattern doubled: it breaks, as in the plain rigidity probe
        assert rep.classification == "pattern-broken"


class TestFullOscillation:
    def test_feedforward_steady_node(self, fig3_steady_system, fig3_net):
        from ccnet.dynamics import integrate
        x0 = np.array([0.0, 0.0, 1.0, 0.0, 0.2, 0.1])
        settle = integrate(fig3_steady_system, x0, 40.0, h=2e-3, record_every=4000)
        cfg = ProbeConfig(system=fig3_steady_system, x_guess=settle.states[-1],
                          T_guess=2 * np.pi, epsilons=(1e-3,), ensemble=3,
                          seed=6, h=2e-3)
        rep = full_oscillation_probe(cfg)
        assert rep.aborted is None
        assert rep.rigidly_steady == frozenset({1})
        assert rep.upstream_closed
        assert not rep.transitive and not rep.violation_candidate

    def test_transitive_ring_all_oscillate(self, wave):
        sys, guess, T = wave
        cfg = ProbeConfig(system=sys, x_guess=guess, T_guess=T,
                          epsilons=(1e-3,), ensemble=3, seed=6, h=2e-3)
        rep = full_oscillation_probe(cfg)
        assert rep.aborted is None
        assert rep.transitive
        assert rep.rigidly_steady == frozenset()
        assert not rep.violation_candidate

    def test_closure_property_holds_in_reports(self, fig3_steady_system):
        from ccnet.dynamics import integrate
        x0 = np.array([0.0, 0.0, 1.0, 0.0, 0.2, 0.1])
        settle = integrate(fig3_steady_system, x0, 40.0, h=2e-3, record_every=4000)
        cfg = ProbeConfig(system=fig3_steady_system, x_guess=settle.states[-1],
                          T_guess=2 * np.pi, epsilons=(1e-3,), ensemble=2,
                          seed=1, h=2e-3)
        rep = full_oscillation_probe(cfg)
        assert rep.upstream_closed


class TestHK:
    def test_uniform_ring_z3(self, wave, wave_orbit, uni3):
        sys, _, _ = wave
        pat = detect_phase(sys, wave_orbit)
        rep = hk_report(uni3, Colouring.discrete([1, 2, 3]), pat)
        assert rep.group_order == 3 and rep.cyclic
        assert rep.consistent
        assert rep.generator in ({1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2})
        thetas = sorted({round(t, 4) for _, _, t, _, _ in rep.shift_checks})
        assert thetas == [0.0, round(1 / 3, 4), round(2 / 3, 4)]

    def test_asymmetric_quotient_trivial_group(self, ring, scenarios):
        # case B: nodes 1, 2 rest at a common point, node 3 oscillates; the
        # only balanced colouring is discrete, the quotient is the ring
        # itself with trivial symmetry, and only theta = 0 self-shifts occur
        s = scenarios["B"]
        orb = find_periodic_orbit(s.system, s.x_guess, s.T_guess, h=2e-3)
        pat = detect_phase(s.system, orb)
        rep = hk_report(ring, Colouring.discrete([1, 2, 3]), pat)
        assert rep.group_order == 1
        assert rep.consistent
        cross = [chk for chk in rep.shift_checks if chk[0] != chk[1]]
        assert not cross

    def test_unbalanced_colouring_rejected(self, ring, wave, wave_orbit):
        sys, _, _ = wave
        pat = detect_phase(sys, wave_orbit)
        with pytest.raises(ProbeError):
            hk_report(ring, Colouring.monochrome([1, 2, 3]), pat)

    def test_doubled_synchrony_maps_back_to_base_shift(self, wave, wave_orbit):
        # cross-copy synchrony of the sheared orbit at theta recovers the
        # base phase relation exactly
        from ccnet.dynamics import detect_synchrony
        from ccnet.quotient import double, doubled_system, shear
        sys, _, _ = wave
        pat = detect_phase(sys, wave_orbit)
        dsys = doubled_system(sys, double(sys.network))
        sheared = shear(wave_orbit, 1.0 / 3.0)
        col = detect_synchrony(dsys, sheared)
        for (c, d), pair in pat.pairs.items():
            if c == d:
                continue
            cross = col.colour_of(c) == col.colour_of(d + 3)
            assert cross == pair.contains(1.0 / 3.0)
