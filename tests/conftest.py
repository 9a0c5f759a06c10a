import numpy as np
import pytest

from ccnet.admissible import AdmissibleSystem, Perturbation
from ccnet.library import (case_study_scenarios, control_scenario,
                           hopf_system, mixed_ring_wave_system, ode_pair,
                           ring_wave_system, three_node_ring,
                           two_max_component_net, two_max_component_system,
                           uniform_ring, four_node_control_net)
from ccnet.network import mk_network


@pytest.fixture(scope="session")
def ring():
    return three_node_ring()


@pytest.fixture(scope="session")
def uni3():
    return uniform_ring(3)


@pytest.fixture(scope="session")
def pair_nets():
    return ode_pair()


@pytest.fixture(scope="session")
def control_net():
    return four_node_control_net()


@pytest.fixture(scope="session")
def fig3_net():
    return two_max_component_net()


@pytest.fixture(scope="session")
def hopf():
    return hopf_system()


@pytest.fixture(scope="session")
def wave():
    """Uniform-ring rotating wave: (system, exact initial state, period)."""
    return ring_wave_system(0.2)


@pytest.fixture(scope="session")
def wave_orbit(wave):
    from ccnet.dynamics import find_periodic_orbit
    sys, guess, T = wave
    return find_periodic_orbit(sys, guess, T, h=1e-3)


@pytest.fixture(scope="session")
def mixed_wave():
    return mixed_ring_wave_system(0.2)


@pytest.fixture(scope="session")
def scenarios():
    return {s.name: s for s in case_study_scenarios()}


@pytest.fixture(scope="session")
def control():
    return control_scenario()


@pytest.fixture(scope="session")
def fig3_system():
    return two_max_component_system(node1_oscillates=True)


@pytest.fixture(scope="session")
def fig3_steady_system():
    return two_max_component_system(node1_oscillates=False)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def plain_bump():
    """Factory for the plain plateau bump y -> w psi(|y - z|^2 / delta^2):
    a Perturbation on a class whose vertex group is trivial (every input
    arrives by its own arrow type)."""
    def make(z, delta, w):
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        n_in = len(z) - len(w)
        net = mk_network(["A"] + ["B"] * n_in,
                         [(f"s{j}", 1, j + 2) for j in range(n_in)])
        dims = {"A": len(w), **({"B": 1} if n_in else {})}
        comps = {1: ", ".join(["0"] * len(w)), **({2: "0"} if n_in else {})}
        sys = AdmissibleSystem(net, dims, comps)
        pert = Perturbation(class_rep=1, z=z, delta=delta, w=w)
        return lambda y: pert.component_value(sys, np.asarray(y, dtype=float))
    return make
