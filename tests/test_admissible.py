import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccnet import library
from ccnet.admissible import (AdmissibleError, AdmissibleSystem, Perturbation,
                              PerturbedSystem, c1_norm_estimate,
                              invariance_residual, layout_for,
                              pack_perturbations, arg_permutations,
                              random_polydiagonal_point, symmetrise_component)
from ccnet.colouring import Colouring, enumerate_balanced
from ccnet.expr import Arity
from ccnet.library import HOPF, three_node_ring
from ccnet.network import VertexGroup, mk_network, vertex_group
from ccnet.rigidity import ProbeError, build_proof_perturbation


@pytest.fixture(scope="module")
def fan():
    """One node fed by two same-typed inputs from distinct nodes."""
    return mk_network(["A", "B", "B"], [("s", 1, 2), ("s", 1, 3)])


class TestEvaluate:
    def test_ring_direct_substitution(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                               {1: "u[1][1]", 3: "-x[1]"})
        out = sys.evaluate(np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [3.0, 1.0, -3.0]

    def test_zero_components(self, ring):
        sys = AdmissibleSystem(ring, {"P": 2, "Q": 2}, {1: "0, 0", 3: "0, 0"})
        assert np.array_equal(sys.evaluate(np.arange(6.0)), np.zeros(6))

    def test_balanced_polydiagonal_preserved(self, control_net, rng):
        sys = AdmissibleSystem(control_net, {"C": 2},
                               {1: HOPF.replace("x[1]*", "u[1][1]*", 1),
                                2: HOPF},
                               symmetrise=True)
        for col in enumerate_balanced(control_net):
            x = random_polydiagonal_point(sys.layout, col.colour_map, rng)
            fx = sys.evaluate(x)
            for part in col.parts:
                ref = fx[sys.layout.slice_of(part[0])]
                for c in part[1:]:
                    assert np.max(np.abs(fx[sys.layout.slice_of(c)] - ref)) < 1e-12

    def test_dimension_mismatch(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "0", 3: "0"})
        with pytest.raises(AdmissibleError):
            sys.evaluate(np.zeros(5))

    def test_nonfinite_names_subexpression(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                               {1: "1/u[1][1]", 3: "0"})
        with pytest.raises(AdmissibleError, match="1 / u\\[1\\]\\[1\\]"):
            sys.evaluate(np.array([1.0, 0.0, 0.0]))

    def test_compiled_matches_tree_walk(self, control_net, rng):
        sys = AdmissibleSystem(
            control_net, {"C": 2},
            {1: HOPF, 2: "u[1][1]*u[2][1] - x[1], u[1][2] + u[2][2] - x[2]^3"},
            symmetrise=True)
        for _ in range(5):
            x = rng.standard_normal(sys.layout.total_dim)
            assert np.allclose(sys.evaluate(x), sys._evaluate_slow(x),
                               rtol=0, atol=1e-13)


class TestStructure:
    def test_component_sharing_is_identity(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "u[1][1]", 3: "0"})
        assert sys.component_for(1) is sys.component_for(2)
        assert sys.component_for(3) is not sys.component_for(1)

    def test_component_count_must_match_classes(self, ring):
        with pytest.raises(AdmissibleError, match="missing components"):
            AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "0"})
        with pytest.raises(AdmissibleError, match="two components"):
            AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "0", 2: "0", 3: "0"})

    def test_invariance_gate_without_symmetrise(self, fan):
        with pytest.raises(AdmissibleError, match="not invariant"):
            AdmissibleSystem(fan, {"A": 1, "B": 1},
                             {1: "u[1][1] - 2*u[2][1]", 2: "0"})
        AdmissibleSystem(fan, {"A": 1, "B": 1},
                         {1: "u[1][1] + u[2][1]", 2: "0"})  # fine

    def test_elements_order_first_block_slowest(self):
        # three arrow-type blocks; the symmetrised rhs sums in this order
        net = mk_network(["A"] + ["B"] * 7,
                         [("s", 1, 2), ("s", 1, 3), ("t", 1, 4), ("t", 1, 5),
                          ("t", 1, 6), ("u", 1, 7), ("u", 1, 8)])
        group = vertex_group(net, 1)
        assert [pos for _, pos in group.blocks] == [(0, 1), (2, 3, 4), (5, 6)]
        expected = [sum(images, ())
                    for images in itertools.product(
                        *(itertools.permutations(pos) for _, pos in group.blocks))]
        assert group.elements() == list(group.iter_elements()) == expected
        assert expected[:3] == [(0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 5),
                                (0, 1, 2, 4, 3, 5, 6)]
        assert expected[12] == (1, 0, 2, 3, 4, 5, 6)

    def test_invariance_check_takes_a_lazy_prefix(self, monkeypatch):
        # S7: the lazy prefix is the first 720 permutations in order
        net = mk_network(["A"] + ["B"] * 7, [("s", 1, t) for t in range(2, 9)])
        group = vertex_group(net, 1)
        assert (list(itertools.islice(group.iter_elements(), 720))
                == list(itertools.islice(itertools.permutations(range(7)), 720)))
        # S10 (order 3628800): building the system never lists the group
        original = VertexGroup.elements

        def capped(self, cap=720):
            if cap > 720:
                pytest.fail(f"elements(cap={cap}) on a group of order {self.order}")
            return original(self, cap)

        monkeypatch.setattr(VertexGroup, "elements", capped)
        net = mk_network(["A"] + ["B"] * 10, [("s", 1, t) for t in range(2, 12)])
        comp = " + ".join(f"u[{j}][1]" for j in range(1, 11)) + " - x[1]"
        AdmissibleSystem(net, {"A": 1, "B": 1}, {1: comp, 2: "0.5 - x[1]"})
        with pytest.raises(AdmissibleError, match="not invariant"):
            AdmissibleSystem(net, {"A": 1, "B": 1},
                             {1: comp + " + u[1][1]*u[10][1]^2", 2: "0.5 - x[1]"})

    def test_invariance_residual_sampling(self, fan, rng):
        sys = AdmissibleSystem(fan, {"A": 1, "B": 1},
                               {1: "u[1][1]*u[2][1] + tanh(u[1][1] + u[2][1])",
                                2: "-x[1]"})
        group = vertex_group(fan, 1)
        for perm in group.elements():
            for _ in range(4):
                x = rng.standard_normal(3)
                assert invariance_residual(sys, 1, perm, x) <= 1e-12


class TestSymmetrisation:
    def test_average_of_two(self, fan):
        g = lambda x, u: np.array([u[0][0]])
        sym = symmetrise_component(g, vertex_group(fan, 1))
        out = sym(np.array([0.0]), [np.array([4.0]), np.array([10.0])])
        assert out.tolist() == [7.0]

    def test_idempotent_on_invariant(self, fan, rng):
        g = lambda x, u: np.array([u[0][0] + u[1][0] + x[0] ** 2])
        sym = symmetrise_component(g, vertex_group(fan, 1))
        for _ in range(5):
            x = rng.standard_normal(1)
            u = [rng.standard_normal(1), rng.standard_normal(1)]
            assert sym(x, u) == pytest.approx(g(x, u))

    def test_sup_norm_never_grows(self, fan, rng):
        g = lambda x, u: np.array([np.tanh(3 * u[0][0] - u[1][0])])
        sym = symmetrise_component(g, vertex_group(fan, 1))
        worst_g = worst_s = 0.0
        for _ in range(200):
            x = rng.standard_normal(1)
            u = [rng.standard_normal(1), rng.standard_normal(1)]
            worst_g = max(worst_g, abs(float(g(x, u)[0])))
            worst_s = max(worst_s, abs(float(sym(x, u)[0])))
        assert worst_s <= worst_g + 1e-15

    def test_symmetrised_system_group_invariant(self, fan, rng):
        sys = AdmissibleSystem(fan, {"A": 1, "B": 1},
                               {1: "u[1][1] - 2*u[2][1]", 2: "0"},
                               symmetrise=True)
        for perm in vertex_group(fan, 1).elements():
            x = rng.standard_normal(3)
            assert invariance_residual(sys, 1, perm, x) <= 1e-12


def _fan_bump(fan, z, delta):
    """Perturbation on the fan's S2 input class, as a function of y."""
    sys = AdmissibleSystem(fan, {"A": 1, "B": 1}, {1: "u[1][1] + u[2][1]", 2: "0"})
    pert = Perturbation(class_rep=1, z=np.asarray(z, dtype=float), delta=delta,
                        w=np.array([1.0]))
    return lambda y: pert.component_value(sys, np.asarray(y, dtype=float))


def _proof_setup():
    """Node 4 conflicts with its representative 1 (input tuples (2, 2) vs
    (2, 5) in colours); rep 1 shares node 4's input class, whose vertex
    group swaps the two s-inputs."""
    net = mk_network(["N"] * 5, [("s", 1, 2), ("s", 1, 3), ("s", 4, 2), ("s", 4, 5),
                                 ("t", 2, 1), ("t", 3, 1), ("t", 5, 1)])
    sys = AdmissibleSystem(net, {"N": 1},
                           {1: "u[1][1] + u[2][1] - x[1]", 2: "u[1][1] - x[1]"})
    col = Colouring.from_parts(net.node_ids, [(1, 4), (2, 3), (5,)])
    return sys, col, (1, 2, 5)


class TestBump:
    def test_plateau_and_support(self, plain_bump):
        w = np.array([2.0, -1.0])
        f = plain_bump(np.zeros(3), 0.5, w)
        assert np.array_equal(f(np.zeros(3)), w)
        assert np.array_equal(f(np.array([0.4, 0.2, 0.1])), w)  # inside delta
        assert np.array_equal(f(np.array([1.5, 0.0, 0.0])), np.zeros(2))  # 3*delta
        assert np.array_equal(f(np.array([1.0, 0.0, 0.0])), np.zeros(2))  # exactly 2*delta
        mid = f(np.array([0.75, 0.0, 0.0]))
        assert 0 < mid[0] < 2.0

    def test_zero_value(self, plain_bump):
        f = plain_bump(np.zeros(2), 1.0, np.zeros(1))
        assert all(f(np.array([r, 0.0]))[0] == 0.0 for r in (0.0, 0.5, 1.5))

    def test_smoothness_sampled(self, plain_bump):
        # finite-difference derivative stays bounded through the bridge
        f = plain_bump(np.zeros(1), 1.0, np.array([1.0]))
        h = 1e-6
        for r in np.linspace(0.0, 2.5, 60):
            d = (f(np.array([r + h]))[0] - f(np.array([r - h]))[0]) / (2 * h)
            assert abs(d) < 3.0


class TestSymmetrisedBump:
    def test_reduces_to_plain_bump_without_avoid(self, fan):
        h = _fan_bump(fan, [0., 1., 2.], 0.5)
        assert h(np.array([0., 1., 2.]))[0] == 1.0
        assert h(np.array([0., 2., 1.]))[0] == 1.0  # group translate
        assert h(np.array([5., 5., 5.]))[0] == 0.0

    def test_orbit_collision_is_an_error(self, rng):
        # equal node values put the representative's tuple on the conflict
        # tuple's orbit: no radius separates them
        sys, col, reps = _proof_setup()
        with pytest.raises(ProbeError, match="no valid bump radius"):
            build_proof_perturbation(sys, col, reps, np.full(5, 0.3), np.inf, rng)

    def test_zero_on_avoid_orbit_grid(self, rng):
        sys, col, reps = _proof_setup()
        x0 = np.array([0.3, -0.5, -0.5, 0.3, 1.2])
        pert, pair, case = build_proof_perturbation(sys, col, reps, x0, np.inf, rng)
        assert pair == (4, 1) and case == "c"
        z = np.array([0.3, -0.5, 1.2])            # node 4: (x4, x2, x5)
        a = np.array([0.3, -0.5, -0.5])           # rep 1: (x1, x2, x3)
        assert np.array_equal(pert.z, z)
        perms = [np.asarray(p) for p in
                 arg_permutations(vertex_group(sys.network, 1), sys.arity_of(1))]
        for p in perms:
            assert np.all(pert.component_value(sys, a[p]) == 0.0)
            # nonzero on every translate of the conflict tuple
            assert np.any(pert.component_value(sys, z[p]) != 0.0)
        # delta was shrunk below half the orbit separation
        assert pert.delta < 0.5 * min(np.linalg.norm(a[p] - z[q])
                                      for p in perms for q in perms)

    def test_support_is_union_of_translates(self, fan, rng, plain_bump):
        group = vertex_group(fan, 1)
        arity = Arity(1, (1, 1))
        z = np.array([0.0, 1.0, -2.0])
        h = _fan_bump(fan, z, 0.4)
        base = plain_bump(z, 0.4, np.array([1.0]))
        perms = [np.asarray(p) for p in arg_permutations(group, arity)]
        for _ in range(300):
            y = rng.uniform(-3, 3, size=3)
            in_translate = any(base(y[p])[0] != 0.0 for p in perms)
            assert (h(y)[0] != 0.0) == in_translate


class TestC1Norm:
    def test_constant(self):
        est = c1_norm_estimate(lambda x: np.array([3.0, 4.0]),
                               np.zeros((1, 2)), out_dims=(2,), in_dims=(2,))
        assert est == pytest.approx(5.0)

    def test_linear_lower_bound(self, rng):
        L = rng.standard_normal((3, 3))
        pts = np.vstack([np.eye(3), rng.standard_normal((4, 3))])
        est = c1_norm_estimate(lambda x: L @ x, pts,
                               out_dims=(1, 1, 1), in_dims=(1, 1, 1))
        assert est >= max(np.linalg.norm(L[:, j]) for j in range(3)) - 1e-6

    def test_scales_linearly_in_epsilon(self, plain_bump):
        w = np.array([1.0])
        pts = np.linspace(-2.5, 2.5, 41)[:, None]
        est = {}
        for eps in (1e-2, 1e-4):
            f = plain_bump(np.zeros(1), 1.0, w)
            est[eps] = c1_norm_estimate(lambda x: eps * f(x), pts,
                                        out_dims=(1,), in_dims=(1,))
        ratio = est[1e-2] / est[1e-4]
        assert ratio == pytest.approx(100.0, rel=0.01)

    def test_nonfinite_rejected(self):
        with pytest.raises(AdmissibleError):
            c1_norm_estimate(lambda x: np.array([np.inf]), np.zeros((1, 1)),
                             out_dims=(1,), in_dims=(1,))


class TestPerturbedSystem:
    def test_additivity_and_class_targeting(self, ring, rng):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "u[1][1]", 3: "-x[1]"})
        pert = Perturbation(class_rep=1, z=np.zeros(2), delta=1.0,
                            w=np.array([2.0]))
        psys = PerturbedSystem(sys, [pert], 0.5)
        x = np.zeros(3)
        out = psys.evaluate(x)
        # bump value 1 at its centre, applied to nodes 1 and 2, scaled 0.5*2
        assert out.tolist() == [1.0, 1.0, 0.0]
        far = 10 * np.ones(3)
        assert np.array_equal(psys.evaluate(far), sys.evaluate(far))

    def test_field_is_built_once(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1}, {1: "u[1][1]", 3: "-x[1]"})
        pert = Perturbation(class_rep=1, z=np.zeros(2), delta=1.0,
                            w=np.array([2.0]))
        psys = PerturbedSystem(sys, [pert], 0.5)
        field = psys.flow_args()
        assert psys.flow_args() is field
        assert field.rhs is sys.compiled.rhs
        assert field.lpack == tuple(a.tolist() for a in field.pack)

    def test_pack_round_trip_against_component_value(self, control_net, rng):
        sys = AdmissibleSystem(control_net, {"C": 2},
                               {1: HOPF, 2: HOPF}, symmetrise=True)
        pert = Perturbation(class_rep=2, z=rng.standard_normal(6), delta=0.8,
                            w=rng.standard_normal(2), scale=0.7)
        psys = PerturbedSystem(sys, [pert], 1e-2)
        x = rng.standard_normal(sys.layout.total_dim)
        lay = sys.layout
        slow = sys.evaluate(x).copy()
        for c in (2, 4):
            ins = [x[lay.slice_of(t)] for t in control_net.input_tails(c)]
            slow[lay.slice_of(c)] = psys.component_value(c, x[lay.slice_of(c)], ins)
        assert np.allclose(psys.evaluate(x), slow, atol=1e-12, rtol=0)


# -- block rhs ---------------------------------------------------------------------

def _fan_in_system():
    """Node 1 reads five same-typed inputs: its vertex group S5 (order 120)
    takes the gather-loop branch of the symmetrised codegen."""
    net = mk_network(["A"] + ["B"] * 5, [("s", 1, t) for t in range(2, 7)])
    comp = "u[1][1]*u[2][1]^2 - x[1] + u[3][1]*u[4][1]*u[5][1]^5"
    return AdmissibleSystem(net, {"A": 1, "B": 1},
                            {1: comp, 2: "0.5 - x[1]"}, symmetrise=True)


def _functions_system():
    """sin/cos/exp/tanh and negative powers in one component."""
    net = mk_network(["H", "H"], [("s", 1, 2), ("s", 2, 1)])
    comp = ("sin(x[1])*cos(u[1][2]) - tanh(x[2]) + exp(-x[1]^2)*(2 + u[1][1]^2)^-1, "
            "x[1] - 0.1*x[2] + (1.5 + cos(u[1][1]))^-3")
    return AdmissibleSystem(net, {"H": 2}, {1: comp})


@functools.lru_cache(maxsize=None)
def _block_systems() -> tuple:
    from ccnet.quotient import double, doubled_system
    wave = library.ring_wave_system(0.2)[0]
    systems = [library.hopf_system(), library.rotation_system(),
               library.two_max_component_system(True),
               library.two_max_component_system(False),
               wave, library.ring_wave_system(0.2, n=5)[0],
               library.mixed_ring_wave_system(0.2)[0],
               library.control_scenario().system,
               doubled_system(wave, double(wave.network)),
               _fan_in_system(), _functions_system()]
    systems += [s.system for s in library.case_study_scenarios()]
    return tuple(systems)


class TestBlockRhs:
    def test_fan_in_takes_gather_branch(self):
        from ccnet.admissible import _rhs_source
        sys = _fan_in_system()
        assert vertex_group(sys.network, 1).order > 24
        source, ns = _rhs_source(sys)
        assert "_G1" in ns and "for _p1 in range(120)" in source

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 9))
    def test_block_equals_scalar_columns(self, seed, width):
        rng = np.random.default_rng(seed)
        for sys in _block_systems():
            field = sys.compiled
            block = rng.uniform(-1.5, 1.5, (sys.layout.total_dim, width))
            out = np.empty_like(block)
            field.rhs_block(block, out)
            for j in range(width):
                col = np.empty(sys.layout.total_dim)
                field.rhs(np.ascontiguousarray(block[:, j]), col)
                np.testing.assert_allclose(out[:, j], col, rtol=1e-13, atol=1e-13)
