"""Span recorder and per-layer wrappers for the traced benchmark run.

Wrappers are installed only for the traced run.  Each wraps a public
ccnet function or a CompiledField method and records a span (name, start,
end, parent) plus attributes such as step counts.  Functions imported by
name into other ccnet modules (rigidity imports find_periodic_orbit, for
one) are replaced in every module that holds them, so each caller goes
through a wrapper.  Per-step internals such as _apply_bumps stay
unwrapped; their counts are computed from the arguments of the flow
calls instead.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time


class Recorder:
    """Spans kept in memory: name, start, end, parent index, attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, attrs or {}]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            span[4]["ok"] = True
            return result
        except BaseException:
            span[4]["ok"] = False
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part covered by its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            covered = 0.0
            last = start
            for s, e in sorted(children.get(i, ())):
                s = max(s, last)
                if e > s:
                    covered += e - s
                    last = e
            out.append((end - start) - covered)
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


# -- wrappers -------------------------------------------------------------------

def _pack_bumped(field) -> bool:
    return field.pack[0].shape[0] > 1


def _flow_attrs(field, args, kwargs, kind):
    nsteps = int(args[2] if len(args) > 2 else kwargs["nsteps"])
    return {"steps": nsteps, "dim": field.layout.total_dim, "kind": kind,
            "bumped": _pack_bumped(field)}


class Tracer:
    """Installs and removes the wrappers; owns the recorder."""

    def __init__(self, ccnet_pkg):
        self.rec = Recorder()
        self.evals = 0
        self.ccnet = ccnet_pkg
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, module, name, span, attrs_fn=None):
        """Replace module.name in every ccnet module that holds it."""
        original = getattr(module, name)
        rec = self.rec

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            return rec.call(span, original, args, kwargs, attrs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ccnet" or mod_name.startswith("ccnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _wrap_method(self, cls, name, span, attrs_fn):
        original = getattr(cls, name)
        rec = self.rec

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            return rec.call(span, original, (obj,) + args, kwargs,
                            attrs_fn(obj, args, kwargs))

        self._patch(cls, name, wrapper)

    def install(self):
        pkg = self.ccnet
        adm, dyn, rig = pkg.admissible, pkg.dynamics, pkg.rigidity
        quo, col, net, ode = pkg.quotient, pkg.colouring, pkg.network, pkg.odeequiv
        field = adm.CompiledField

        self._wrap_method(field, "flow", "compile.flow",
                          lambda f, a, k: _flow_attrs(f, a, k, "flow"))
        self._wrap_method(field, "flow_record", "compile.flow",
                          lambda f, a, k: _flow_attrs(f, a, k, "record"))
        self._wrap_method(field, "flow_variational", "compile.variational",
                          lambda f, a, k: _flow_attrs(f, a, k, "variational"))
        original_eval = field.eval
        tracer = self

        def counted_eval(obj, x):
            tracer.evals += 1
            return original_eval(obj, x)

        self._patch(field, "eval", counted_eval)
        self._wrap_method(adm.AdmissibleSystem, "__init__", "admissible.build",
                          lambda s, a, k: None)
        self._wrap_function(pkg._compile, "compile_rhs", "admissible.compile")
        self._wrap_function(adm, "parse_component", "expr.parse")
        self._wrap_function(adm, "c1_norm_estimate", "admissible.c1_estimate")

        self._wrap_function(dyn, "find_periodic_orbit", "dynamics.find_orbit",
                            lambda a, k: {"continuation": k.get("section") is not None})
        self._wrap_function(dyn, "monodromy_matrix", "dynamics.monodromy")
        self._wrap_function(dyn, "is_hyperbolic", "dynamics.is_hyperbolic")
        self._wrap_function(dyn, "floquet", "dynamics.floquet")
        self._wrap_function(dyn, "detect_phase", "dynamics.detect_phase")
        self._wrap_function(dyn, "detect_synchrony", "dynamics.detect_synchrony")
        self._wrap_function(dyn, "integrate", "dynamics.integrate")

        for name in ("rigidity_probe", "phase_probe", "full_oscillation_probe"):
            self._wrap_function(rig, name, "rigidity.probe")
        for name in ("build_proof_perturbation", "random_perturbation"):
            self._wrap_function(rig, name, "rigidity.build_perturbation")

        self._wrap_function(quo, "double", "quotient.double")
        self._wrap_function(quo, "doubled_system", "quotient.double")
        self._wrap_function(quo, "shear", "quotient.shear")
        self._wrap_function(quo, "constraint_residual", "quotient.constraint_residual")
        self._wrap_function(quo, "quasi_quotient", "quotient.quasi_quotient")

        self._wrap_function(col, "enumerate_balanced", "colouring.enumerate",
                            lambda a, k: {"partitions": _bell_product(a[0])})
        self._wrap_function(col, "coarsest_balanced_refinement", "colouring.refine")
        self._wrap_function(net, "automorphisms", "network.automorphisms",
                            lambda a, k: {"permutations": math.factorial(len(a[0].node_ids))})
        self._wrap_function(net, "isomorphic", "network.isomorphic")
        self._wrap_function(ode, "linearly_equivalent", "odeequiv.equivalence")
        self._wrap_function(ode, "classify_2node", "odeequiv.classify2")

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _bell_product(net) -> int:
    """Candidate partitions enumerate_balanced examines: the product of
    the Bell numbers of the input-class sizes."""
    out = 1
    for cls in net.input_partition:
        out *= _bell(len(cls))
    return out


# -- per-layer metrics ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "compile.flow_calls": "count",
    "compile.rk4_steps": "count",
    "compile.flow_s": "s",
    "compile.us_per_rk4_step": "us",
    "compile.variational_calls": "count",
    "compile.variational_steps": "count",
    "compile.variational_s": "s",
    "compile.rhs_evals": "count",
    "compile.bumped_steps": "count",
    "admissible.build_s": "s",
    "expr.parse_s": "s",
    "admissible.c1_estimate_calls": "count",
    "admissible.c1_estimate_s": "s",
    "dynamics.find_orbit_calls": "count",
    "dynamics.find_orbit_self_s": "s",
    "dynamics.shooting_flows_per_orbit": "count",
    "dynamics.monodromy_calls": "count",
    "dynamics.monodromy_s": "s",
    "dynamics.monodromy_read_ratio": "ratio",
    "dynamics.detect_phase_calls": "count",
    "dynamics.detect_phase_s": "s",
    "dynamics.detect_synchrony_s": "s",
    "dynamics.integrate_s": "s",
    "rigidity.members": "count",
    "rigidity.members_found_ratio": "ratio",
    "rigidity.s_per_member": "s",
    "rigidity.build_perturbation_s": "s",
    "rigidity.probe_self_s": "s",
    "quotient.double_s": "s",
    "quotient.shear_calls": "count",
    "quotient.shear_s": "s",
    "quotient.constraint_residual_s": "s",
    "quotient.quasi_quotient_s": "s",
    "colouring.enumerate_s": "s",
    "colouring.partitions_examined": "count",
    "colouring.partitions_per_s": "1/s",
    "colouring.refine_s": "s",
    "network.automorphisms_s": "s",
    "network.permutations_tried": "count",
    "network.isomorphic_s": "s",
    "odeequiv.equivalence_s": "s",
    "odeequiv.classify2_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(rec: Recorder, setup_spans: int, rounds: int, evals_per_round: float,
              overhead_s: float) -> dict[str, float]:
    """Per-layer figures for one round, averaged over the traced rounds.

    Spans before index `setup_spans` belong to the set-up; system building
    and parsing report the set-up plus one round, everything else one
    round.  A figure that does not apply to a workload reads 0.
    """
    selfs = rec.self_times()
    tot: dict[str, float] = {}
    cnt: dict[str, int] = {}
    setup_tot: dict[str, float] = {}
    steps = {"flow": 0, "variational": 0, "bumped": 0, "rhs": 0.0}
    shoot_flows = 0
    members = found = 0
    member_s = 0.0
    probe_self = orbit_self = 0.0
    partitions = perms = 0
    for i, (name, start, end, parent, attrs) in enumerate(rec.spans):
        dur = end - start
        if i < setup_spans:
            setup_tot[name] = setup_tot.get(name, 0.0) + dur
            continue
        tot[name] = tot.get(name, 0.0) + dur
        cnt[name] = cnt.get(name, 0) + 1
        if name in ("compile.flow", "compile.variational"):
            n = attrs["steps"]
            if name == "compile.flow":
                steps["flow"] += n
                steps["rhs"] += 4 * n
                if attrs["kind"] == "flow" and parent >= 0 \
                        and rec.spans[parent][0] == "dynamics.find_orbit":
                    shoot_flows += 1
            else:
                steps["variational"] += n
                steps["rhs"] += 4 * (1 + 2 * attrs["dim"]) * n
            if attrs["bumped"]:
                steps["bumped"] += n
        elif name == "dynamics.find_orbit":
            orbit_self += selfs[i]
            if attrs["continuation"]:
                members += 1
                found += attrs["ok"]
                member_s += dur
        elif name == "rigidity.probe":
            probe_self += selfs[i]
        elif name == "colouring.enumerate":
            partitions += attrs["partitions"]
        elif name == "network.automorphisms":
            perms += attrs["permutations"]

    r = float(rounds)

    def t(name):
        return tot.get(name, 0.0) / r

    def c(name):
        return cnt.get(name, 0) / r

    def built(name):
        return setup_tot.get(name, 0.0) + t(name)

    out = {
        "compile.flow_calls": c("compile.flow"),
        "compile.rk4_steps": steps["flow"] / r,
        "compile.flow_s": t("compile.flow"),
        "compile.us_per_rk4_step": 1e6 * _ratio(tot.get("compile.flow", 0.0), steps["flow"]),
        "compile.variational_calls": c("compile.variational"),
        "compile.variational_steps": steps["variational"] / r,
        "compile.variational_s": t("compile.variational"),
        "compile.rhs_evals": steps["rhs"] / r + evals_per_round,
        "compile.bumped_steps": steps["bumped"] / r,
        "admissible.build_s": built("admissible.build") + built("admissible.compile"),
        "expr.parse_s": built("expr.parse"),
        "admissible.c1_estimate_calls": c("admissible.c1_estimate"),
        "admissible.c1_estimate_s": t("admissible.c1_estimate"),
        "dynamics.find_orbit_calls": c("dynamics.find_orbit"),
        "dynamics.find_orbit_self_s": orbit_self / r,
        "dynamics.shooting_flows_per_orbit": _ratio(shoot_flows, cnt.get("dynamics.find_orbit", 0)),
        "dynamics.monodromy_calls": c("dynamics.monodromy"),
        "dynamics.monodromy_s": t("dynamics.monodromy"),
        "dynamics.monodromy_read_ratio": _ratio(
            cnt.get("dynamics.is_hyperbolic", 0) + cnt.get("dynamics.floquet", 0),
            cnt.get("dynamics.monodromy", 0)),
        "dynamics.detect_phase_calls": c("dynamics.detect_phase"),
        "dynamics.detect_phase_s": t("dynamics.detect_phase"),
        "dynamics.detect_synchrony_s": t("dynamics.detect_synchrony"),
        "dynamics.integrate_s": t("dynamics.integrate"),
        "rigidity.members": members / r,
        "rigidity.members_found_ratio": _ratio(found, members),
        "rigidity.s_per_member": _ratio(member_s, members),
        "rigidity.build_perturbation_s": t("rigidity.build_perturbation"),
        "rigidity.probe_self_s": probe_self / r,
        "quotient.double_s": t("quotient.double"),
        "quotient.shear_calls": c("quotient.shear"),
        "quotient.shear_s": t("quotient.shear"),
        "quotient.constraint_residual_s": t("quotient.constraint_residual"),
        "quotient.quasi_quotient_s": t("quotient.quasi_quotient"),
        "colouring.enumerate_s": t("colouring.enumerate"),
        "colouring.partitions_examined": partitions / r,
        "colouring.partitions_per_s": _ratio(partitions, tot.get("colouring.enumerate", 0.0)),
        "colouring.refine_s": t("colouring.refine"),
        "network.automorphisms_s": t("network.automorphisms"),
        "network.permutations_tried": perms / r,
        "network.isomorphic_s": t("network.isomorphic"),
        "odeequiv.equivalence_s": t("odeequiv.equivalence"),
        "odeequiv.classify2_s": t("odeequiv.classify2"),
        "trace.overhead_s": overhead_s,
        "trace.spans": float(len(rec.spans)),
    }
    assert set(out) == set(PER_LAYER_UNITS)
    return out
