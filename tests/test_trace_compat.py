"""The traced benchmark (perfbench/bench_trace.py) looks up every function
and method it wraps by name and reads CompiledField.pack; a rename in the
package would otherwise surface only in a `--trace 1` run."""

import os
import sys

import numpy as np

import ccnet
from ccnet.admissible import Perturbation, PerturbedSystem
from ccnet.library import hopf_system

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_wraps_a_bumped_orbit_and_its_floquet_read():
    sys.path.insert(0, PERFBENCH)
    try:
        import bench_trace
    finally:
        sys.path.remove(PERFBENCH)
    tracer = bench_trace.Tracer(ccnet)
    tracer.install()
    try:
        hopf = hopf_system()
        pert = Perturbation(class_rep=1, z=np.array([0.0, 1.2]), delta=0.6,
                            w=np.array([1.0, 0.0]))
        psys = PerturbedSystem(hopf, [pert], 1e-2)
        orb = ccnet.dynamics.find_periodic_orbit(psys, np.array([1.2, 0.0]), 6.0,
                                                 h=1e-2)
        ccnet.dynamics.floquet(psys, orb)
    finally:
        tracer.uninstall()
    names = {name for name, *_ in tracer.rec.spans}
    for name in ("compile.flow", "compile.variational", "dynamics.find_orbit",
                 "dynamics.floquet"):
        assert name in names, name
    flows = [attrs for name, *_, attrs in tracer.rec.spans if name == "compile.flow"]
    assert all(a["bumped"] for a in flows)
    assert not bench_trace._pack_bumped(hopf_system().compiled)
