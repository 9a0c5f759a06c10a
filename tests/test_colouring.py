import itertools

import numpy as np
import pytest

from ccnet.admissible import AdmissibleSystem, random_polydiagonal_point
from ccnet.colouring import (Colouring, ColouringError, LatticePosition,
                             coarsest_balanced_refinement, colouring_from_json,
                             colouring_to_json, compare, enumerate_balanced,
                             input_classes, is_balanced, join, meet, refines,
                             refinement_round)
from ccnet.library import four_node_control_net, three_node_ring, uniform_ring
from ccnet.network import NetworkError, mk_network


def C(*parts_):
    nodes = sorted(c for p in parts_ for c in p)
    return Colouring.from_parts(nodes, parts_)


class TestBalance:
    def test_ring_all_one_unbalanced(self, ring):
        assert not is_balanced(ring, Colouring.monochrome([1, 2, 3]))

    def test_ring_trivial_balanced(self, ring):
        assert is_balanced(ring, Colouring.discrete([1, 2, 3]))

    def test_control_two_colouring_balanced(self, control_net):
        assert is_balanced(control_net, C((1, 3), (2, 4)))

    def test_mismatch_raises(self, ring):
        with pytest.raises(ColouringError):
            is_balanced(ring, Colouring.monochrome([1, 2]))


class TestLattice:
    def test_discrete_refines_everything(self):
        a = Colouring.discrete([1, 2, 3])
        for b in (C((1, 2), (3,)), C((1, 2, 3)), Colouring.discrete([1, 2, 3])):
            assert refines(a, b)

    def test_meet_is_common_refinement(self):
        assert meet(C((1, 2), (3,)), C((1,), (2, 3))).parts == ((1,), (2,), (3,))

    def test_join_closes_chains(self):
        assert join(C((1, 2), (3,)), C((2, 3), (1,))).parts == ((1, 2, 3),)

    def test_compare_enum(self):
        a, b = Colouring.discrete([1, 2, 3]), C((1, 2), (3,))
        assert compare(a, b) is LatticePosition.FINER
        assert compare(b, a) is LatticePosition.COARSER
        assert compare(a, a) is LatticePosition.EQUAL
        assert compare(C((1, 2), (3,)), C((1, 3), (2,))) is LatticePosition.INCOMPARABLE

    def test_meet_join_lattice_laws(self, rng):
        nodes = list(range(1, 6))
        cols = [Colouring.from_map({c: int(rng.integers(0, 3)) for c in nodes})
                for _ in range(12)]
        for a, b in itertools.combinations(cols, 2):
            m, j = meet(a, b), join(a, b)
            assert refines(m, a) and refines(m, b)
            assert refines(a, j) and refines(b, j)

    def test_finer_iff_polydiagonal_containment(self, rng):
        # a finer colouring constrains fewer coordinates: its polydiagonal
        # contains the coarser one's
        nodes = (1, 2, 3, 4)
        a = C((1, 2), (3,), (4,))
        b = C((1, 2, 3), (4,))
        assert refines(a, b)
        # every point of Delta_b also satisfies a's equalities
        for _ in range(5):
            vals = {col: rng.standard_normal(2) for col in range(b.n_colours)}
            x = {c: vals[b.colour_of(c)] for c in nodes}
            for part in a.parts:
                ref = x[part[0]]
                assert all(np.allclose(x[c], ref) for c in part)


class TestRefinement:
    def test_ring_all_one_to_trivial(self, ring):
        out = coarsest_balanced_refinement(ring, Colouring.monochrome([1, 2, 3]))
        assert out.parts == ((1,), (2,), (3,))

    def test_balanced_fixed_point(self, control_net):
        col = C((1, 3), (2, 4))
        assert coarsest_balanced_refinement(control_net, col) == col

    def test_control_from_all_one(self, control_net):
        out = coarsest_balanced_refinement(control_net,
                                           Colouring.monochrome([1, 2, 3, 4]))
        assert out.parts == ((1, 3), (2, 4))

    def test_agrees_with_bruteforce_small(self, rng):
        # coarsest balanced refinement = unique coarsest among all balanced
        # partitions finer than the start, by exhaustive partition scan
        for trial in range(40):
            n = int(rng.integers(2, 5))
            arrows = [(str(rng.choice(["a", "b"])),
                       int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                      for _ in range(int(rng.integers(0, 7)))]
            net = mk_network(["N"] * n, arrows)
            start = Colouring.from_map({c: int(rng.integers(0, 2))
                                        for c in range(1, n + 1)})
            got = coarsest_balanced_refinement(net, start)
            cands = [col for col in _all_partitions(n)
                     if refines(col, start) and is_balanced(net, col)]
            best = [c for c in cands if all(refines(d, c) for d in cands)]
            assert len(best) == 1
            assert got == best[0]


def _all_partitions(n):
    nodes = tuple(range(1, n + 1))

    def rec(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for sub in rec(rest):
            yield ((first,),) + sub
            for i, part in enumerate(sub):
                yield sub[:i] + ((first,) + part,) + sub[i + 1:]

    return [Colouring.from_parts(nodes, p) for p in rec(nodes)]


class TestEnumeration:
    def test_ring_only_trivial(self, ring):
        cols = enumerate_balanced(ring)
        assert [c.parts for c in cols] == [((1,), (2,), (3,))]

    def test_single_node(self):
        net = mk_network(["A"], [])
        assert len(enumerate_balanced(net)) == 1

    def test_symmetric_pair_two(self, pair_nets):
        g1, _ = pair_nets
        cols = enumerate_balanced(g1)
        assert sorted(c.parts for c in cols) == [((1,), (2,)), ((1, 2),)]

    def test_closed_under_meet_join(self, control_net, uni3):
        for net in (control_net, uni3):
            cols = enumerate_balanced(net)
            seen = {c.colours for c in cols}
            for a, b in itertools.combinations(cols, 2):
                assert meet(a, b).colours in seen
                assert join(a, b).colours in seen

    def test_cap(self):
        net = mk_network(["N"] * 11, [])
        with pytest.raises(NetworkError):
            enumerate_balanced(net)

    def test_ring10_builds_few_colourings(self, monkeypatch):
        # the pruned search builds a Colouring only for a balanced result
        # (4 here); the full walk over per-class partitions built 115 975
        built = []
        post_init = Colouring.__post_init__
        monkeypatch.setattr(Colouring, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        assert len(enumerate_balanced(uniform_ring(10))) == 4
        assert len(built) <= 16


class TestBalancedFlowInvariance:
    def test_admissible_field_preserves_balanced_polydiagonal(self, control_net, rng):
        sys = AdmissibleSystem(
            control_net, {"C": 2},
            {1: "tanh(u[1][1]) - x[1], tanh(u[1][2]) - x[2]",
             2: "tanh(u[1][1] + u[2][1]) - x[1], tanh(u[1][2]) + tanh(u[2][2]) - x[2]"},
            symmetrise=True)
        col = C((1, 3), (2, 4))
        assert is_balanced(control_net, col)
        for _ in range(6):
            x = random_polydiagonal_point(sys.layout, col.colour_map, rng)
            fx = sys.evaluate(x)
            for part in col.parts:
                ref = fx[sys.layout.slice_of(part[0])]
                for c in part[1:]:
                    assert np.max(np.abs(fx[sys.layout.slice_of(c)] - ref)) < 1e-12

    def test_unbalanced_polydiagonal_leaks(self, ring):
        sys = AdmissibleSystem(ring, {"P": 1, "Q": 1},
                               {1: "u[1][1] - x[1]", 3: "2*u[1][1] - x[1]"})
        x = np.array([0.7, 0.7, 0.7])
        fx = sys.evaluate(x)
        assert abs(fx[0] - fx[2]) > 1e-3


class TestJson:
    def test_round_trip(self):
        col = C((1, 2), (3,))
        assert colouring_from_json(colouring_to_json(col)) == col

    def test_refinement_round_exposed(self, ring):
        one = refinement_round(ring, Colouring.monochrome([1, 2, 3]))
        assert one.n_colours == 2  # first split separates the input classes
