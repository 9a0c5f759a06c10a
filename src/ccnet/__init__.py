"""ccnet: coupled-cell network analysis and rigidity probing.

Submodules
----------
network     typed multigraphs, input/state equivalence, components, automorphisms
colouring   colourings, balance, the refinement lattice, enumeration
expr        the component expression language
admissible  admissible systems, perturbations, C1 estimates
quotient    quasi-quotients, restrict/lift, doubling, shearing
odeequiv    adjacency matrices, linear equivalence, 2-node classification
dynamics    integration, periodic orbits, Floquet, pattern detection
rigidity    synchrony/phase/oscillation probes and reports
library     built-in networks and case-study systems
"""

from .network import (Arrow, ComponentDag, Network, NetworkError, Node,
                      ValidationReport, VertexGroup, automorphisms, isomorphic,
                      mk_network, network_from_json, network_to_json,
                      transitive_components, validate_network, vertex_group)
from .colouring import (Colouring, ColouringError, LatticePosition, compare,
                        coarsest_balanced_refinement, colouring_from_json,
                        colouring_to_json, enumerate_balanced, input_classes,
                        is_balanced, join, meet, refines, state_equivalence,
                        validate_colouring)
from .expr import Arity, ComponentExpr, ExprError, parse_component
from .admissible import (AdmissibleError, AdmissibleSystem, Perturbation,
                         PerturbedSystem, StateLayout, c1_norm_estimate,
                         symmetrise_component, system_from_json)
from .quotient import (DoubledNetwork, QuasiQuotient, constraint_residual,
                       double, doubled_system, find_good_representatives, lift,
                       quasi_quotient, restrict, shear)
from .odeequiv import (AdjacencySet, TwoNodeClass, adjacency_matrices,
                       classify_2node, linearly_equivalent)
from .dynamics import (HyperbolicityReport, PeriodicOrbit, PhasePattern,
                       Trajectory, detect_phase, detect_steady_nodes,
                       detect_synchrony, find_periodic_orbit, floquet,
                       integrate, is_hyperbolic, orbit_from_point,
                       upstream_closure)
from .rigidity import (HKReport, OscillationReport, ProbeConfig, ProbeReport,
                       Tolerances, case_study_3ring, control_probe,
                       full_oscillation_probe, hk_report, phase_probe,
                       rigidity_probe)

__version__ = "0.1.0"
