"""Command-line interface.

Exit codes: 0 completed, 1 error, 2 a probe produced conjecture-violating
evidence (an unbalanced pattern that survived every perturbation, or a
rigidly steady node on a transitive network).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from . import (AdmissibleSystem, Colouring, ProbeConfig, Tolerances,
               case_study_3ring, classify_2node,
               coarsest_balanced_refinement, colouring_from_json,
               colouring_to_json, detect_phase, enumerate_balanced,
               find_periodic_orbit, floquet, full_oscillation_probe,
               hk_report, input_classes, integrate, is_balanced,
               is_hyperbolic, linearly_equivalent, network_from_json,
               network_to_json, phase_probe, quasi_quotient, rigidity_probe,
               state_equivalence, system_from_json, validate_network)
from .dynamics import orbit_to_json, trajectory_to_csv
from .odeequiv import orbit_matrices, row_space

VIOLATION_EXIT = 2


def _load_json(path_or_literal: str) -> dict:
    text = path_or_literal
    if not text.lstrip().startswith("{"):
        with open(path_or_literal) as fh:
            text = fh.read()
    return json.loads(text)


def _load_net(args):
    return network_from_json(_load_json(args.net))


def _load_col(args) -> Colouring:
    return colouring_from_json(_load_json(args.col))


def _load_sys(args) -> AdmissibleSystem:
    return system_from_json(_load_net(args), _load_json(args.sys))


def _parse_vec(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tolerances(args) -> Tolerances:
    kw = {}
    for name in ("sync", "triv", "hyp", "orbit", "phase", "steady"):
        v = getattr(args, f"tol_{name}", None)
        if v is not None:
            kw[name] = v
    return Tolerances(**kw)


def _probe_config(args) -> ProbeConfig:
    sys_ = _load_sys(args)
    col = colouring_from_json(_load_json(args.col)) if args.col else None
    reps = tuple(int(v) for v in args.reps.split(",")) if args.reps else None
    eps = tuple(float(v) for v in args.eps.split(",")) if args.eps else (1e-2, 1e-3, 1e-4)
    return ProbeConfig(system=sys_, x_guess=_parse_vec(args.x0), T_guess=args.tguess,
                       colouring=col, representatives=reps, epsilons=eps,
                       ensemble=args.ensemble, seed=args.seed, h=args.h,
                       tol=_tolerances(args))


def _add_net(p):
    p.add_argument("--net", required=True, help="network JSON (path or literal)")


def _add_probe_flags(p, needs_guess=True):
    p.add_argument("--sys", required=True, help="system JSON (path or literal)")
    if needs_guess:
        p.add_argument("--x0", required=True, help="comma-separated initial state")
        p.add_argument("--tguess", type=float, required=True, help="period guess")
    p.add_argument("--col", help="colouring under test (JSON path or literal)")
    p.add_argument("--reps", help="comma-separated representative node ids")
    p.add_argument("--eps", help="comma-separated epsilon schedule, decreasing")
    p.add_argument("--ensemble", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-3, help="integration step")
    for name, default in (("sync", 1e-8), ("triv", 1e-5), ("hyp", 1e-3),
                          ("orbit", 1e-10), ("phase", 1e-6), ("steady", 1e-8)):
        p.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=float,
                       default=default)
    p.add_argument("--out", help="write the JSON report here")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ccnet",
                                 description="coupled-cell network toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="structure, state classes, dimension check")
    _add_net(p)
    p.add_argument("--dims", help='JSON mapping node type -> dimension')
    p.add_argument("--out")

    p = sub.add_parser("classes", help="input and state equivalence classes")
    _add_net(p)
    p.add_argument("--out")

    p = sub.add_parser("balanced", help="is a colouring balanced?")
    _add_net(p)
    p.add_argument("--col", required=True)
    p.add_argument("--out")

    p = sub.add_parser("refine", help="coarsest balanced refinement")
    _add_net(p)
    p.add_argument("--col", required=True)
    p.add_argument("--out")

    p = sub.add_parser("enumerate", help="all balanced colourings")
    _add_net(p)
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--out")

    p = sub.add_parser("qq", help="quasi-quotient network and bracket map")
    _add_net(p)
    p.add_argument("--col", required=True)
    p.add_argument("--reps", required=True)
    p.add_argument("--out")

    p = sub.add_parser("odeequiv", help="linear/ODE equivalence of two networks")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("--out")

    p = sub.add_parser("classify2", help="canonical class of a 2-node network")
    _add_net(p)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="integrate a system")
    _add_net(p)
    p.add_argument("--sys", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--tspan", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--every", type=int, default=10)
    p.add_argument("--csv", help="write the trajectory CSV here")
    p.add_argument("--out")

    p = sub.add_parser("orbit", help="find a periodic orbit by shooting")
    _add_net(p)
    p.add_argument("--sys", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--tguess", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--csv", help="write one period of samples here")
    p.add_argument("--out")

    p = sub.add_parser("floquet", help="orbit plus multipliers and verdict")
    _add_net(p)
    p.add_argument("--sys", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--tguess", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--tol-triv", dest="tol_triv", type=float, default=1e-5)
    p.add_argument("--tol-hyp", dest="tol_hyp", type=float, default=1e-3)
    p.add_argument("--out")

    p = sub.add_parser("probe", help="synchrony rigidity probe")
    _add_net(p)
    _add_probe_flags(p)

    p = sub.add_parser("phase-probe", help="phase rigidity probe on the doubled network")
    _add_net(p)
    _add_probe_flags(p)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("fullosc", help="rigidly steady nodes / full oscillation")
    _add_net(p)
    _add_probe_flags(p)

    p = sub.add_parser("hk", help="cyclic quotient symmetry vs detected shifts")
    _add_net(p)
    _add_probe_flags(p)

    p = sub.add_parser("case3ring", help="built-in 3-ring case studies")
    p.add_argument("--eps", default="1e-3,1e-4")
    p.add_argument("--ensemble", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=2e-3)
    p.add_argument("--out")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # single CLI error funnel
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.cmd
    if cmd == "validate":
        net = _load_net(args)
        dims = json.loads(args.dims) if args.dims else None
        rep = validate_network(net, dims)
        _emit(args, {"ok": rep.ok, "state_classes": [list(c) for c in rep.state_classes],
                     "dim_consistent": rep.dim_consistent,
                     "dim_errors": rep.dim_errors,
                     "warnings": rep.irredundancy_warnings})
        return 0
    if cmd == "classes":
        net = _load_net(args)
        _emit(args, {"input_classes": str(input_classes(net)),
                     "state_classes": str(state_equivalence(net))})
        return 0
    if cmd == "balanced":
        net = _load_net(args)
        _emit(args, {"balanced": is_balanced(net, _load_col(args))})
        return 0
    if cmd == "refine":
        net = _load_net(args)
        ref = coarsest_balanced_refinement(net, _load_col(args))
        _emit(args, {"refined": colouring_to_json(ref), "parts": str(ref)})
        return 0
    if cmd == "enumerate":
        net = _load_net(args)
        cols = enumerate_balanced(net, cap=args.cap)
        _emit(args, {"count": len(cols),
                     "colourings": [str(c) for c in cols]})
        return 0
    if cmd == "qq":
        net = _load_net(args)
        reps = tuple(int(v) for v in args.reps.split(","))
        qq = quasi_quotient(net, _load_col(args), reps)
        _emit(args, {"network": network_to_json(qq.network),
                     "bracket": {str(k): v for k, v in sorted(qq.bracket.items())}})
        return 0
    if cmd == "odeequiv":
        n1 = network_from_json(_load_json(args.net1))
        n2 = network_from_json(_load_json(args.net2))
        verdict = linearly_equivalent(n1, n2)
        _emit(args, {"equivalent": verdict,
                     "basis1": _basis_json(n1), "basis2": _basis_json(n2)})
        return 0
    if cmd == "classify2":
        net = _load_net(args)
        cls = classify_2node(net)
        _emit(args, {"class": cls.class_id, "p": cls.p, "q": cls.q,
                     "swapped": cls.swapped, "text": str(cls)})
        return 0
    if cmd == "simulate":
        sys_ = _load_sys(args)
        traj = integrate(sys_, _parse_vec(args.x0), args.tspan, h=args.h,
                         record_every=args.every)
        if args.csv:
            trajectory_to_csv(traj, args.csv)
        _emit(args, {"samples": int(traj.states.shape[0]), "step": traj.step,
                     "error_estimate": traj.error_estimate,
                     "final": [float(v) for v in traj.states[-1]]})
        return 0
    if cmd == "orbit":
        sys_ = _load_sys(args)
        orb = find_periodic_orbit(sys_, _parse_vec(args.x0), args.tguess, h=args.h)
        if args.csv:
            from .dynamics import Trajectory
            trajectory_to_csv(Trajectory(orb.times, orb.samples, orb.step), args.csv)
        _emit(args, orbit_to_json(orb))
        return 0
    if cmd == "floquet":
        sys_ = _load_sys(args)
        orb = find_periodic_orbit(sys_, _parse_vec(args.x0), args.tguess, h=args.h)
        rep = is_hyperbolic(sys_, orb, net=sys_.network,
                            tol_triv=args.tol_triv, tol_hyp=args.tol_hyp)
        payload = orbit_to_json(orb)
        payload.update({"verdict": rep.verdict, "warnings": rep.warnings,
                        "quasi_hyperbolic": rep.quasi_hyperbolic})
        _emit(args, payload)
        return 0
    if cmd == "probe":
        rep = rigidity_probe(_probe_config(args))
        _emit(args, rep.to_json())
        return VIOLATION_EXIT if rep.violation_candidate else 0
    if cmd == "phase-probe":
        rep = phase_probe(_probe_config(args), args.theta)
        _emit(args, rep.to_json())
        return VIOLATION_EXIT if rep.violation_candidate else 0
    if cmd == "fullosc":
        rep = full_oscillation_probe(_probe_config(args))
        _emit(args, rep.to_json())
        return VIOLATION_EXIT if rep.violation_candidate else 0
    if cmd == "hk":
        cfg = _probe_config(args)
        orb = find_periodic_orbit(cfg.system, cfg.x_guess, cfg.T_guess, h=cfg.h,
                                  tol=cfg.tol.orbit)
        pattern = detect_phase(cfg.system, orb, tol=cfg.tol.phase)
        col = cfg.colouring
        if col is None:
            from .dynamics import detect_synchrony
            col = detect_synchrony(cfg.system, orb.samples, tol=cfg.tol.sync)
        rep = hk_report(cfg.system.network, col, pattern)
        _emit(args, rep.to_json())
        return 0
    if cmd == "case3ring":
        eps = tuple(float(v) for v in args.eps.split(","))
        reports = case_study_3ring(epsilons=eps, ensemble=args.ensemble,
                                   seed=args.seed, h=args.h)
        _emit(args, {name: rep.to_json() for name, rep in reports.items()})
        bad = any(r.violation_candidate for r in reports.values())
        return VIOLATION_EXIT if bad else 0
    raise ValueError(f"unknown command {cmd!r}")


def _basis_json(net) -> list[list[str]]:
    return [[str(v) for v in row] for row in row_space(orbit_matrices(net))]


if __name__ == "__main__":
    raise SystemExit(main())
