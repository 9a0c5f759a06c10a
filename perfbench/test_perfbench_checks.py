"""Quick self-tests of the benchmark's own checks: each must reject a
wrong value (a wrong period, colouring count, log-determinant, ...) and
accept the right one.  No ccnet call runs here, so they stay fast."""

import math

import pytest

import bench_checks as C
from bench_trace import Recorder, _bell

HOPF_MU = math.exp(-4 * math.pi)


def test_period_rejects_a_wrong_period():
    period, _ = C.ring_wave_closed_form(0.2, 3)
    C.check_period(period * (1 + 1e-9), period, rel_tol=1e-6)
    with pytest.raises(C.CheckFailed):
        C.check_period(period * 1.01, period, rel_tol=1e-6)


def test_radius_rejects_an_orbit_off_its_circle():
    _, r = C.ring_wave_closed_form(0.2, 3)
    on = [[r * math.cos(t), r * math.sin(t)] for t in (0.0, 1.0, 2.0)]
    C.check_radii(on, [r], tol=1e-9)
    with pytest.raises(C.CheckFailed):
        C.check_radii([[1.01 * x, 1.01 * y] for x, y in on], [r], tol=1e-6)


def test_liouville_rejects_a_wrong_log_determinant():
    div = C.divergence_integral(2 * math.pi, [1.0], [0.0])
    assert div == pytest.approx(-4 * math.pi)
    C.check_liouville([1.0, HOPF_MU], div, tol=1e-9)
    with pytest.raises(C.CheckFailed):
        C.check_liouville([1.0, 1.01 * HOPF_MU], div, tol=1e-6)
    C.check_hopf_multiplier([1.0, HOPF_MU], rel_tol=1e-9)
    with pytest.raises(C.CheckFailed):
        C.check_hopf_multiplier([1.0, 1.01 * HOPF_MU], rel_tol=1e-6)


def test_trivial_multiplier_must_be_unique():
    C.check_one_trivial_multiplier([1.0 + 1e-9, 0.5])
    with pytest.raises(C.CheckFailed):
        C.check_one_trivial_multiplier([1.0, 1.0 + 1e-7, 0.5])
    with pytest.raises(C.CheckFailed):
        C.check_one_trivial_multiplier([0.9, 0.5])


def test_colouring_count_rejects_a_wrong_count():
    n = 6
    ring = {c: "R" for c in range(1, n + 1)}
    arrows = [("s", c % n + 1, c) for c in range(1, n + 1)]
    brute = C.brute_force_balanced_count(ring, arrows)
    C.check_count(brute, C.divisor_count(n), "ring colourings")
    with pytest.raises(C.CheckFailed):
        C.check_count(brute + 1, C.divisor_count(n), "ring colourings")


def test_multiset_balance_and_classification():
    types = {c: "C" for c in (1, 2, 3, 4)}
    arrows = [("s", 1, 2), ("s", 3, 4), ("s", 2, 1), ("s", 2, 3), ("s", 4, 3), ("s", 4, 1)]
    assert C.own_balanced(types, arrows, [(1, 3), (2, 4)])
    assert not C.own_balanced(types, arrows, [(1, 2, 3, 4)])
    C.check_classification("pattern-broken", balanced=False)
    with pytest.raises(C.CheckFailed):
        C.check_classification("pattern-broken", balanced=True)


def test_shift_and_rotations_reject_wrong_answers():
    C.check_shift([0.0, 1 / 3 + 1e-9, 2 / 3], 1 / 3, tol=1e-6)
    C.check_shift([0.9999999999], 0.0, tol=1e-6)
    with pytest.raises(C.CheckFailed):
        C.check_shift([0.0, 0.5], 1 / 3, tol=1e-6)
    rotations = [{c: (c - 1 + k) % 4 + 1 for c in range(1, 5)} for k in range(4)]
    C.check_ring_rotations(rotations, 4)
    reflection = {1: 1, 2: 4, 3: 3, 4: 2}
    with pytest.raises(C.CheckFailed):
        C.check_ring_rotations(rotations[:3] + [reflection], 4)


def test_displacement_must_be_linear_in_epsilon():
    C.check_displacements([(0, 1e-3, True, 5e-4), (0, 1e-4, True, 5e-5),
                           (1, 1e-3, True, 2e-3), (1, 1e-4, True, 2e-4)])
    with pytest.raises(C.CheckFailed):
        C.check_displacements([(0, 1e-3, True, 5e-4), (0, 1e-4, True, 4e-4)])
    with pytest.raises(C.CheckFailed):
        C.check_displacements([(0, 1e-3, True, 2e-2)])
    with pytest.raises(C.CheckFailed):
        C.check_displacements([(0, 1e-3, False, None)])


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.spans = [["probe", 0.0, 10.0, -1, {}], ["flow", 1.0, 3.0, 0, {}],
                 ["flow", 2.0, 4.0, 0, {}], ["eval", 1.5, 2.0, 1, {}]]
    assert rec.self_times() == pytest.approx([7.0, 1.5, 2.0, 0.5])
    assert [_bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
