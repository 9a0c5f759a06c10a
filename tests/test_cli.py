import json

import numpy as np
import pytest

from ccnet.cli import main
from ccnet.library import (hopf_network, hopf_system, ode_pair,
                           three_node_ring, two_max_component_net,
                           two_max_component_system, uniform_ring)
from ccnet.network import network_to_json


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def put(name, payload):
        p = d / name
        p.write_text(json.dumps(payload))
        return str(p)

    g1, g2 = ode_pair()
    return {
        "ring": put("ring.json", network_to_json(three_node_ring())),
        "uni": put("uni.json", network_to_json(uniform_ring(3))),
        "g1": put("g1.json", network_to_json(g1)),
        "g2": put("g2.json", network_to_json(g2)),
        "hopf": put("hopf.json", network_to_json(hopf_network())),
        "hsys": put("hsys.json", hopf_system().to_json()),
        "fig3": put("fig3.json", network_to_json(two_max_component_net())),
        "fig3sys": put("fig3sys.json",
                       two_max_component_system(node1_oscillates=False).to_json()),
        "dir": d,
    }


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip() else None


class TestStructureCommands:
    def test_validate(self, capsys, files):
        rc, out = run(capsys, "validate", "--net", files["ring"],
                      "--dims", '{"P":2,"Q":2}')
        assert rc == 0 and out["ok"] and out["state_classes"] == [[1, 2, 3]]

    def test_classes(self, capsys, files):
        rc, out = run(capsys, "classes", "--net", files["ring"])
        assert rc == 0
        assert out["input_classes"] == "{{1,2},{3}}"

    def test_balanced_and_refine(self, capsys, files):
        rc, out = run(capsys, "balanced", "--net", files["ring"],
                      "--col", '{"colours":{"1":0,"2":0,"3":1}}')
        assert rc == 0 and out["balanced"] is False
        rc, out = run(capsys, "refine", "--net", files["ring"],
                      "--col", '{"colours":{"1":0,"2":0,"3":0}}')
        assert rc == 0 and out["parts"] == "{{1},{2},{3}}"

    def test_enumerate(self, capsys, files):
        rc, out = run(capsys, "enumerate", "--net", files["ring"])
        assert rc == 0 and out["count"] == 1

    def test_qq(self, capsys, files):
        rc, out = run(capsys, "qq", "--net", files["ring"],
                      "--col", '{"colours":{"1":0,"2":0,"3":1}}', "--reps", "1,3")
        assert rc == 0
        assert out["bracket"] == {"1": 1, "2": 1, "3": 3}
        assert len(out["network"]["nodes"]) == 2

    def test_odeequiv_and_classify(self, capsys, files):
        rc, out = run(capsys, "odeequiv", files["g1"], files["g2"])
        assert rc == 0 and out["equivalent"] is True
        rc, out = run(capsys, "classify2", "--net", files["g1"])
        assert rc == 0 and out["class"] == 4

    def test_error_exit_code(self, capsys, files):
        rc = main(["classify2", "--net", files["ring"]])
        assert rc == 1


class TestDynamicsCommands:
    def test_simulate_csv(self, capsys, files):
        csv = str(files["dir"] / "traj.csv")
        rc, out = run(capsys, "simulate", "--net", files["hopf"],
                      "--sys", files["hsys"], "--x0", "0.2,0.0",
                      "--tspan", "6.0", "--csv", csv)
        assert rc == 0
        header = open(csv).readline().strip().split(",")
        assert header == ["t", "x1", "x2"]

    def test_orbit_and_floquet(self, capsys, files):
        rc, out = run(capsys, "orbit", "--net", files["hopf"],
                      "--sys", files["hsys"], "--x0", "1.2,0.0", "--tguess", "6.0")
        assert rc == 0
        assert abs(out["period"] - 2 * np.pi) < 1e-6
        rc, out = run(capsys, "floquet", "--net", files["hopf"],
                      "--sys", files["hsys"], "--x0", "1.2,0.0", "--tguess", "6.0")
        assert rc == 0 and out["verdict"] == "hyperbolic"
        mus = [complex(re, im) for re, im in out["multipliers"]]
        assert abs(mus[0] - 1.0) < 1e-6


class TestProbeCommands:
    def test_hk_passes_orbit_tolerance(self, capsys, files, monkeypatch):
        import ccnet.cli
        seen = []
        original = ccnet.cli.find_periodic_orbit

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return original(*args, **kwargs)

        monkeypatch.setattr(ccnet.cli, "find_periodic_orbit", spy)
        rc, out = run(capsys, "hk", "--net", files["hopf"], "--sys", files["hsys"],
                      "--x0", "1.2,0.0", "--tguess", "6.0", "--h", "1e-2",
                      "--tol-orbit", "3e-9")
        assert rc == 0 and out is not None
        assert seen == [3e-9]

    def test_case3ring_exit_zero(self, capsys, files):
        rc, out = run(capsys, "case3ring", "--eps", "1e-3,1e-4",
                      "--ensemble", "2", "--h", "4e-3")
        assert rc == 0
        assert {k: v["classification"] for k, v in out.items()} == {
            n: "pattern-broken" for n in "ABCD"}

    def test_fullosc_feedforward(self, capsys, files):
        from ccnet.dynamics import integrate
        sys3 = two_max_component_system(node1_oscillates=False)
        x0 = np.array([0.0, 0.0, 1.0, 0.0, 0.2, 0.1])
        settle = integrate(sys3, x0, 40.0, h=2e-3, record_every=4000)
        x = ",".join(str(v) for v in settle.states[-1])
        rc, out = run(capsys, "fullosc", "--net", files["fig3"],
                      "--sys", files["fig3sys"], "--x0", x,
                      "--tguess", str(2 * np.pi), "--eps", "1e-3",
                      "--ensemble", "2", "--h", "4e-3")
        assert rc == 0
        assert out["rigidly_steady"] == [1]
        assert out["upstream_closed"] is True
