"""Standalone property suites: group invariance of evaluation, balanced
polydiagonal flow invariance, semicontinuity of detection, bump support
contracts, phase-pattern reflection symmetry, and the pruned combinatorial
searches against the brute-force walks they replaced."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccnet.admissible import (AdmissibleSystem, Perturbation, arg_permutations,
                              invariance_residual, polydiagonal_distance,
                              random_polydiagonal_point)
from ccnet.colouring import (Colouring, compare, enumerate_balanced,
                             is_balanced, LatticePosition, refines)
from ccnet.dynamics import (PairShifts, PhasePattern, _shift_mean_squares, _spectrum,
                            detect_synchrony, integrate)
from ccnet.expr import Arity
from ccnet.library import HOPF, four_node_control_net, uniform_ring
from ccnet.network import automorphisms, isomorphic, mk_network, vertex_group
from ccnet.quotient import quasi_quotient
from ccnet.rigidity import _perm_order, hk_report


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


def _periodic_signal(rng, grid: int, cols: int, offset: float) -> np.ndarray:
    """Random Fourier coefficients on six random modes (Nyquist included
    for an even grid), plus an offset."""
    t = np.arange(grid) / grid
    out = np.full((grid, cols), offset) + rng.standard_normal(cols)
    for k in rng.integers(1, grid // 2 + 1, size=6):
        a, b = rng.standard_normal((2, cols))
        out += np.outer(np.cos(2 * np.pi * k * t), a) + np.outer(np.sin(2 * np.pi * k * t), b)
    return out


class TestPhaseScanBound:
    """The FFT mean square detect_phase prunes shifts by: it is the
    brute-force mean square, and at most the exact squared sup plus its
    margin."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), grid=st.sampled_from([341, 512]),
           cols=st.integers(1, 3), offset=st.floats(-50.0, 50.0))
    def test_mean_square_bounds_sup(self, seed, grid, cols, offset):
        rng = np.random.default_rng(seed)
        bc = _periodic_signal(rng, grid, cols, offset)
        bd = _periodic_signal(rng, grid, cols, rng.uniform(-1.0, 1.0) * offset)
        ms, margin = _shift_mean_squares(_spectrum(bc), _spectrum(bd), grid)
        rows = (np.arange(grid)[:, None] + np.arange(grid)[None, :]) % grid
        sq = np.sum((bc[None] - bd[rows]) ** 2, axis=2)  # [s, t]: |bc[t] - bd[t + s]|^2
        total = (np.sum(bc * bc) + np.sum(bd * bd)) / grid
        assert np.max(np.abs(ms - sq.mean(axis=1))) <= 1e-12 * total
        assert np.all(ms <= sq.max(axis=1) + margin)


# -- brute-force oracles: the walks enumerate_balanced, automorphisms and
# isomorphic ran before their searches were pruned

def _oracle_set_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _oracle_set_partitions(rest):
        yield ((first,),) + sub
        for i, part in enumerate(sub):
            yield sub[:i] + ((first,) + part,) + sub[i + 1:]


def _oracle_enumerate(net):
    per_class = [list(_oracle_set_partitions(cls)) for cls in net.input_partition]
    found = []
    for combo in itertools.product(*per_class):
        col = Colouring.from_parts(net.node_ids, [p for sub in combo for p in sub])
        if is_balanced(net, col):
            found.append(col)
    found.sort(key=lambda c: (c.n_colours, c.colours))
    return found


def _oracle_counts(net):
    m = {}
    for a in net.arrows:
        key = (a.arrow_type, a.head, a.tail)
        m[key] = m.get(key, 0) + 1
    return m


def _oracle_automorphisms(net):
    ids, counts = net.node_ids, _oracle_counts(net)
    result = []
    for perm in itertools.permutations(ids):
        sigma = dict(zip(ids, perm))
        if any(net.node_type(c) != net.node_type(sigma[c]) for c in ids):
            continue
        if all(counts.get((t, sigma[h], sigma[tl]), 0) == k
               for (t, h, tl), k in counts.items()):
            result.append(sigma)
    return result


def _oracle_isomorphic(net1, net2):
    ids1, ids2 = net1.node_ids, net2.node_ids
    if len(ids1) != len(ids2):
        return False
    c1, c2 = _oracle_counts(net1), _oracle_counts(net2)
    for perm in itertools.permutations(ids2):
        sigma = dict(zip(ids1, perm))
        if any(net1.node_type(c) != net2.node_type(sigma[c]) for c in ids1):
            continue
        if {(t, sigma[h], sigma[tl]): k for (t, h, tl), k in c1.items()} == c2:
            return True
    return False


@st.composite
def _network_specs(draw, ids=None, n_arrows=None):
    """Random typed multi-networks: 1-7 nodes, contiguous or scattered ids,
    1-2 node and arrow types, up to 2n+2 arrows with self-loops and
    multi-arrows (an arrowless network when none are drawn)."""
    if ids is None:
        n = draw(st.integers(1, 7))
        ids = (sorted(draw(st.sets(st.integers(1, 20), min_size=n, max_size=n)))
               if draw(st.booleans()) else list(range(1, n + 1)))
    node_types = draw(st.sampled_from([("A",), ("A", "B")]))
    arrow_types = draw(st.sampled_from([("s",), ("s", "t")]))
    types = {c: draw(st.sampled_from(node_types)) for c in ids}
    arrow = st.tuples(st.sampled_from(arrow_types), st.sampled_from(ids),
                      st.sampled_from(ids))
    if n_arrows is None:
        arrows = draw(st.lists(arrow, max_size=2 * len(ids) + 2))
    else:
        arrows = draw(st.lists(arrow, min_size=n_arrows, max_size=n_arrows))
    return types, arrows


@st.composite
def _relabelled(draw, spec):
    types, arrows = spec
    ids = sorted(types)
    m = dict(zip(ids, draw(st.permutations(ids))))
    return ({m[c]: t for c, t in types.items()},
            draw(st.permutations([(a, m[h], m[tl]) for a, h, tl in arrows])))


@st.composite
def _isomorphism_cases(draw):
    """A network, a relabelled copy, a network on the same ids with the
    same arrow total (only the search can tell it apart), and one more
    arrow for the network."""
    spec = draw(_network_specs())
    ids = sorted(spec[0])
    return (spec, draw(_relabelled(spec)),
            draw(_network_specs(ids=ids, n_arrows=len(spec[1]))),
            draw(st.tuples(st.sampled_from(("s", "t")), st.sampled_from(ids),
                           st.sampled_from(ids))))


_SCATTERED = ({4: "A", 7: "A", 9: "A"}, [])
_LOOPS = ({4: "A", 7: "A", 9: "B"}, [("s", 4, 4), ("s", 7, 4), ("s", 7, 4),
                                     ("t", 9, 9), ("s", 4, 7)])


class TestSearchAgainstBruteForce:
    """enumerate_balanced, automorphisms and isomorphic give the brute-force
    walks' outputs, in the same order, on random typed multi-networks."""

    @settings(max_examples=120, deadline=None)
    @given(spec=_network_specs())
    @example(spec=_SCATTERED)
    @example(spec=_LOOPS)
    def test_enumeration_and_automorphisms(self, spec):
        net = mk_network(*spec)
        cols = enumerate_balanced(net)
        assert cols == _oracle_enumerate(net)
        assert all(is_balanced(net, col) for col in cols)
        assert automorphisms(net) == _oracle_automorphisms(net)

    @settings(max_examples=120, deadline=None)
    @given(case=_isomorphism_cases())
    @example(case=(_SCATTERED, ({1: "A", 2: "A", 3: "A"}, []),
                   ({4: "A", 7: "A", 9: "B"}, []), ("s", 4, 9)))
    @example(case=(_LOOPS,
                   ({9: "A", 4: "A", 7: "B"}, [("s", 9, 9), ("s", 4, 9), ("s", 4, 9),
                                               ("t", 7, 7), ("s", 9, 4)]),
                   ({4: "A", 7: "A", 9: "B"}, [("s", 4, 4), ("s", 7, 4), ("s", 7, 7),
                                               ("t", 9, 9), ("s", 4, 7)]),
                   ("t", 4, 7)))
    def test_isomorphic(self, case):
        (types, arrows), copy, other, extra = case
        net = mk_network(types, arrows)
        copy, other = mk_network(*copy), mk_network(*other)
        assert isomorphic(net, copy) and isomorphic(copy, net)
        assert isomorphic(net, other) == _oracle_isomorphic(net, other)
        plus = mk_network(types, arrows + [extra])
        assert not isomorphic(net, plus) and not isomorphic(plus, net)

    def test_hk_generator_in_oracle_order(self):
        # the 8-ring coloured mod 4 has the 4-ring as quotient: both
        # rotations by one step generate its Z4 and satisfy theta(1,3) = 1/2,
        # so hk_report's generator is the first of them in search order
        net = uniform_ring(8)
        col = Colouring.from_map({c: (c - 1) % 4 for c in net.node_ids})
        pattern = PhasePattern(period=1.0, pairs={
            (1, 1): PairShifts(False, ((0.0, 0.0),)),
            (1, 3): PairShifts(False, ((0.5, 0.0),))})
        rep = hk_report(net, col, pattern)
        qq = quasi_quotient(net, col, col.representatives())
        autos = _oracle_automorphisms(qq.network)
        order4 = [g for g in autos if _perm_order(g) == 4]
        assert rep.group_order == len(autos) == 4 and rep.consistent
        assert rep.generator == order4[0] == {1: 2, 2: 3, 3: 4, 4: 1}
