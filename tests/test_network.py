import itertools

import pytest

from ccnet.colouring import input_classes, refines, state_equivalence
from ccnet.network import (Network, NetworkError, Node, Arrow, automorphisms,
                           input_isomorphisms, isomorphic, mk_network,
                           network_from_json, network_to_json,
                           transitive_components, validate_network,
                           vertex_group)
from ccnet.library import uniform_ring


def parts(col):
    return tuple(col.parts)


class TestValidation:
    def test_ring_valid_one_state_class(self, ring):
        rep = validate_network(ring, {"P": 2, "Q": 2})
        assert rep.ok
        assert rep.state_classes == ((1, 2, 3),)

    def test_ring_dim_mismatch(self, ring):
        rep = validate_network(ring, {"P": 2, "Q": 3})
        assert not rep.dim_consistent
        assert any("unequal dimensions" in e for e in rep.dim_errors)

    def test_redundant_arrow_type_warns(self):
        # one arrow type labelling a self-loop on node 1 and an arrow into a
        # node of a different type: heads are not input equivalent
        net = mk_network(["A", "B"], [("s", 1, 1), ("s", 2, 1)])
        rep = validate_network(net, {"A": 1, "B": 1})
        assert rep.irredundancy_warnings
        assert "'s'" in rep.irredundancy_warnings[0]

    def test_dangling_ids_hard_failure(self):
        with pytest.raises(NetworkError):
            Network([Node(1, "A")], [Arrow(1, "s", 1, 7)])
        with pytest.raises(NetworkError):
            Network([Node(1, "A"), Node(1, "B")], [])


class TestInputClasses:
    def test_ring(self, ring):
        assert parts(input_classes(ring)) == ((1, 2), (3,))

    def test_symmetric_pair(self, pair_nets):
        g1, _ = pair_nets
        assert parts(input_classes(g1)) == ((1, 2),)

    def test_fully_inhomogeneous(self):
        net = mk_network(["A", "B", "C"],
                         [("t12", 2, 1), ("t13", 3, 1), ("t21", 1, 2),
                          ("t23", 3, 2), ("t31", 1, 3), ("t32", 2, 3)])
        assert parts(input_classes(net)) == ((1,), (2,), (3,))


class TestVertexGroup:
    def test_ring_node1_trivial(self, ring):
        vg = vertex_group(ring, 1)
        assert vg.order == 1
        assert vg.blocks == (("solid", (0,)),)

    def test_three_same_type_inputs(self):
        net = mk_network(["A", "B", "B", "B"],
                         [("s", 1, 2), ("s", 1, 3), ("s", 1, 4)])
        vg = vertex_group(net, 1)
        assert vg.order == 6
        assert len(vg.elements()) == 6

    def test_two_singleton_blocks(self):
        net = mk_network(["N", "N"],
                         [("s", 1, 2), ("s", 2, 1), ("t", 1, 2), ("t", 2, 2)])
        vg = vertex_group(net, 1)
        assert vg.order == 1
        assert len(vg.blocks) == 2

    def test_order_counts_self_isomorphisms(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 5))
            arrows = []
            for _k in range(int(rng.integers(0, 6))):
                t = str(rng.choice(["a", "b"]))
                arrows.append((t, 1, int(rng.integers(1, n + 1))))
            net = mk_network(["N"] * n, arrows)
            vg = vertex_group(net, 1)
            assert vg.order == len(input_isomorphisms(net, 1, 1))

    def test_cap(self):
        net = mk_network(["A"] + ["B"] * 7, [("s", 1, k) for k in range(2, 9)])
        with pytest.raises(NetworkError):
            vertex_group(net, 1).elements(cap=720)


class TestStateEquivalence:
    def test_ring_all_merged(self, ring):
        assert parts(state_equivalence(ring)) == ((1, 2, 3),)

    def test_isolated_distinct_types(self):
        net = mk_network(["A", "B"], [])
        assert parts(state_equivalence(net)) == ((1,), (2,))

    def test_chain_closure_merges_tails(self):
        # 1 and 2 input equivalent with inputs from 3 and 4: closure forces
        # the tails together as well
        net = mk_network(["N", "N", "M", "K"], [("s", 1, 3), ("s", 2, 4)])
        assert parts(state_equivalence(net)) == ((1, 2), (3, 4))

    def test_input_refines_state(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            arrows = []
            for _k in range(int(rng.integers(0, 8))):
                t = str(rng.choice(["a", "b"]))
                arrows.append((t, int(rng.integers(1, n + 1)),
                               int(rng.integers(1, n + 1))))
            net = mk_network(["N"] * n, arrows)
            assert refines(input_classes(net), state_equivalence(net))


class TestTransitiveComponents:
    def test_two_maximal(self, fig3_net):
        dag = transitive_components(fig3_net)
        assert dag.components == (frozenset({1}), frozenset({2}), frozenset({3}))
        assert dag.maximal_node_sets() == (frozenset({1}), frozenset({2}))

    def test_ring_single_component(self, ring):
        dag = transitive_components(ring)
        assert dag.components == (frozenset({1, 2, 3}),)
        assert dag.maximal == (0,)

    def test_feedforward_pair(self):
        net = mk_network(["N", "N"], [("s", 1, 1), ("s", 2, 1)])
        dag = transitive_components(net)
        assert dag.maximal_node_sets() == (frozenset({1}),)

    def test_condensation_acyclic_and_partition(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            arrows = [("s", int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                      for _k in range(int(rng.integers(0, 10)))]
            net = mk_network(["N"] * n, arrows)
            dag = transitive_components(net)
            nodes = sorted(c for comp in dag.components for c in comp)
            assert nodes == list(range(1, n + 1))
            # edges go between distinct components and admit a topological order
            order = {i: k for k, i in enumerate(_topo(dag))}
            assert all(order[i] < order[j] for i, j in dag.edges)


def _topo(dag):
    incoming = {i: 0 for i in range(len(dag.components))}
    for _, j in dag.edges:
        incoming[j] += 1
    ready = [i for i, k in incoming.items() if k == 0]
    out = []
    while ready:
        i = ready.pop()
        out.append(i)
        for a, b in dag.edges:
            if a == i:
                incoming[b] -= 1
                if incoming[b] == 0:
                    ready.append(b)
    return out


class TestAutomorphisms:
    def test_symmetric_pair_swap(self, pair_nets):
        g1, _ = pair_nets
        autos = automorphisms(g1)
        assert len(autos) == 2
        assert {1: 2, 2: 1} in autos

    def test_mixed_ring_trivial(self, ring):
        assert automorphisms(ring) == [{1: 1, 2: 2, 3: 3}]

    def test_uniform_ring_cyclic(self, uni3):
        autos = automorphisms(uni3)
        assert len(autos) == 3
        assert {1: 2, 2: 3, 3: 1} in autos

    def test_group_axioms(self, uni3, control_net):
        for net in (uni3, control_net):
            autos = automorphisms(net)
            table = {tuple(sorted(g.items())) for g in autos}
            for g in autos:
                inv = {v: k for k, v in g.items()}
                assert tuple(sorted(inv.items())) in table
                for h in autos:
                    comp = {c: g[h[c]] for c in g}
                    assert tuple(sorted(comp.items())) in table

    def test_cap(self):
        net = mk_network(["N"] * 9, [])
        with pytest.raises(NetworkError):
            automorphisms(net)

    def test_search_work(self, monkeypatch):
        # every candidate image costs one node_type call; the walks over
        # all 8! permutations made 645 120 calls for each query below
        calls = []
        node_type = Network.node_type
        monkeypatch.setattr(Network, "node_type",
                            lambda self, c: calls.append(c) or node_type(self, c))
        ring8 = uniform_ring(8)
        two4 = mk_network(["R"] * 8, [("s", c % 4 + 1, c) for c in range(1, 5)]
                          + [("s", c % 4 + 5, c + 4) for c in range(1, 5)])
        assert len(automorphisms(ring8)) == 8
        assert len(calls) <= 4000
        calls.clear()
        assert not isomorphic(ring8, two4)
        assert len(calls) <= 4000


class TestJsonAndIso:
    def test_round_trip(self, ring):
        assert network_from_json(network_to_json(ring)) == ring

    def test_isomorphic_relabelled(self, uni3):
        other = mk_network({4: "R", 7: "R", 9: "R"},
                           [("s", 7, 4), ("s", 9, 7), ("s", 4, 9)])
        assert isomorphic(uni3, other)
        assert not isomorphic(uni3, mk_network(["R"] * 3, [("s", 2, 1), ("s", 3, 2)]))
