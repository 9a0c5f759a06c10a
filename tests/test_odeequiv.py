import itertools

import numpy as np
import pytest

from ccnet.library import canonical_two_node, ode_pair, three_node_ring, uniform_ring
from ccnet.network import NetworkError, mk_network
from ccnet.odeequiv import (adjacency_matrices, classify_2node,
                            linearly_equivalent, orbit_matrices, row_space)


class TestAdjacency:
    def test_symmetric_pair_left(self, pair_nets):
        g1, _ = pair_nets
        adj = adjacency_matrices(g1)
        assert adj.node_type_matrices == {"N": ((1, 0), (0, 1))}
        assert adj.arrow_matrices == {"s": ((0, 1), (1, 0))}

    def test_right_adds_identity_loops(self, pair_nets):
        _, g2 = pair_nets
        adj = adjacency_matrices(g2)
        assert adj.arrow_matrices["d"] == ((1, 0), (0, 1))

    def test_ring_entries(self, ring):
        adj = adjacency_matrices(ring)
        assert adj.arrow_matrices["solid"] == ((0, 0, 1), (1, 0, 0), (0, 0, 0))
        assert adj.arrow_matrices["dashed"] == ((0, 0, 0), (0, 0, 0), (0, 1, 0))
        # node-type diagonals are idempotents summing to the identity
        total = np.sum([np.array(m) for m in adj.node_type_matrices.values()], axis=0)
        assert np.array_equal(total, np.eye(3))

    def test_entries_count_multiarrows(self):
        net = mk_network(["N", "N"], [("s", 1, 2)] * 3 + [("s", 2, 1)] * 2)
        adj = adjacency_matrices(net)
        assert adj.arrow_matrices["s"] == ((0, 3), (2, 0))


class TestLinearEquivalence:
    def test_pair_equivalent(self, pair_nets):
        assert linearly_equivalent(*pair_nets)

    def test_reflexive(self, ring, pair_nets):
        for net in (ring, pair_nets[0], pair_nets[1]):
            assert linearly_equivalent(net, net)

    def test_ring_vs_uniform(self, ring, uni3):
        assert not linearly_equivalent(ring, uni3)

    def test_node_count_mismatch(self, ring, pair_nets):
        with pytest.raises(NetworkError):
            linearly_equivalent(ring, pair_nets[0])

    def test_equivalence_relation(self, rng):
        nets = [_random_two_node(rng) for _ in range(12)]
        for a, b, c in itertools.combinations(nets, 3):
            ab, bc, ac = (linearly_equivalent(a, b), linearly_equivalent(b, c),
                          linearly_equivalent(a, c))
            assert linearly_equivalent(b, a) == ab  # symmetric
            if ab and bc:
                assert ac  # transitive


def _random_two_node(rng, max_types=3, max_arrows=4):
    same_type = bool(rng.integers(0, 2))
    types = ["N", "N"] if same_type else ["A", "B"]
    arrows = []
    n_types = int(rng.integers(0, max_types + 1))
    for t in range(n_types):
        for _ in range(int(rng.integers(0, max_arrows + 1))):
            arrows.append((f"t{t}", int(rng.integers(1, 3)), int(rng.integers(1, 3))))
    return mk_network(types, arrows)


def _swap_nodes(net):
    return mk_network({1: net.node_type(2), 2: net.node_type(1)},
                      [(a.arrow_type, 3 - a.head, 3 - a.tail) for a in net.arrows])


def _add_redundant_type(net, rng):
    """A new arrow type duplicating an existing type's arrow pattern (an
    integer multiple), which leaves the admissible-map space unchanged."""
    types = net.arrow_types()
    if not types:
        return None
    t = types[int(rng.integers(len(types)))]
    copies = int(rng.integers(1, 3))
    arrows = [(a.arrow_type, a.head, a.tail) for a in net.arrows]
    arrows += [("redundant", a.head, a.tail) for a in net.arrows
               if a.arrow_type == t] * copies
    return mk_network([n.node_type for n in net.nodes], arrows)


class TestClassification:
    def test_symmetric_pair_is_class_4(self, pair_nets):
        g1, g2 = pair_nets
        assert classify_2node(g1).class_id == 4
        assert classify_2node(g2).class_id == 4

    def test_inhomogeneous_all_to_all_is_class_3(self):
        net = mk_network(["A", "B"], [("a", 1, 2), ("b", 2, 1)])
        assert classify_2node(net).class_id == 3

    def test_class8_parameters(self):
        net = mk_network(["N", "N"],
                         [("s", 1, 2)] * 3 + [("s", 2, 1)] * 2 + [("s", 2, 2)])
        cls = classify_2node(net)
        assert (cls.class_id, cls.p, cls.q) == (8, 1, 2)

    def test_canonical_networks_fixed(self):
        for k in range(1, 8):
            assert classify_2node(canonical_two_node(k)).class_id == k
        for p, q in ((1, 1), (1, 2), (2, 1), (3, 2)):
            cls = classify_2node(canonical_two_node(8, p, q))
            assert (cls.class_id, cls.p, cls.q) == (8, p, q)

    def test_swap_invariance(self, rng):
        for _ in range(60):
            net = _random_two_node(rng)
            cls = classify_2node(net)
            swapped = mk_network(
                {1: net.node_type(2), 2: net.node_type(1)},
                [(a.arrow_type, 3 - a.head, 3 - a.tail) for a in net.arrows])
            cls2 = classify_2node(swapped)
            assert (cls.class_id, cls.p, cls.q) == (cls2.class_id, cls2.p, cls2.q)

    def test_redundant_type_never_changes_class(self, rng):
        changed = 0
        for _ in range(80):
            net = _random_two_node(rng)
            bigger = _add_redundant_type(net, rng)
            if bigger is None:
                continue
            a, b = classify_2node(net), classify_2node(bigger)
            if (a.class_id, a.p, a.q) != (b.class_id, b.p, b.q):
                changed += 1
        assert changed == 0

    def test_every_fuzzed_network_gets_exactly_one_class(self, rng):
        # classification is up to node renumbering, linear equivalence is
        # label-sensitive: compare against the canonical network in the
        # orientation the classifier reports
        for _ in range(200):
            net = _random_two_node(rng)
            cls = classify_2node(net)
            assert 1 <= cls.class_id <= 8
            oriented = _swap_nodes(net) if cls.swapped else net
            canon = canonical_two_node(cls.class_id, cls.p or 1, cls.q or 1)
            assert linearly_equivalent(oriented, canon)
            # ... and to no other canonical network in either orientation
            for other in range(1, 9):
                if other == cls.class_id:
                    continue
                assert not linearly_equivalent(net, canonical_two_node(other))
                assert not linearly_equivalent(_swap_nodes(net),
                                               canonical_two_node(other))
            if cls.class_id == 8:
                for dp, dq in ((1, 0), (0, 1)):
                    near = canonical_two_node(8, cls.p + dp, cls.q + dq)
                    assert not linearly_equivalent(oriented, near)

    def test_node_count_guard(self, ring):
        with pytest.raises(NetworkError):
            classify_2node(ring)

    def test_impossible_span_is_a_typed_error(self, monkeypatch):
        # a lower-triangular, inhomogeneous span of dimension 2 fits no
        # canonical class; the error must survive python -O
        from ccnet import odeequiv
        monkeypatch.setattr(odeequiv, "row_space",
                            lambda mats: ((1, 0, 0, 0), (0, 0, 1, 0)))
        with pytest.raises(odeequiv.ClassificationError, match="3-dim"):
            classify_2node(canonical_two_node(5))
        assert issubclass(odeequiv.ClassificationError, NetworkError)
