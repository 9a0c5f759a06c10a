"""Correctness checks for the benchmark, independent of ccnet's own logic.

Every expected value here comes from a closed form (periods, radii, the
Liouville integral of the divergence, divisor counts) or from a brute
force written in this file (set partitions, the multiset balance test),
never from a stored copy of earlier program output.  Each check raises
CheckFailed with the reason; the self-tests feed them wrong values to
show that they can fail.
"""

from __future__ import annotations

import math


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# -- closed forms -------------------------------------------------------------

def ring_wave_closed_form(kappa: float, n: int) -> tuple[float, float]:
    """(period, radius) of the rotating wave on the diffusively coupled
    directed n-ring of planar limit-cycle oscillators."""
    omega = 1.0 + kappa * math.sin(2 * math.pi / n)
    radius = math.sqrt(1.0 - kappa * (1.0 - math.cos(2 * math.pi / n)))
    return 2 * math.pi / omega, radius


def divergence_integral(period: float, radii, kappas) -> float:
    """Integral over one period of div f for limit-cycle nodes
    x' = x(1 - |x|^2) + Jx + kappa (mean input - x) moving on circles of
    constant radius: each node contributes 2 - 4 r^2 - 2 kappa."""
    return period * sum(2.0 - 4.0 * r * r - 2.0 * k for r, k in zip(radii, kappas))


# -- orbit checks --------------------------------------------------------------

def check_period(period: float, expected: float, rel_tol: float):
    require(abs(period - expected) <= rel_tol * expected,
            f"period {period!r} differs from the closed form {expected!r}")


def check_radii(samples, radii, tol: float):
    """Each planar node stays on its closed-form circle over the samples."""
    for c, r in enumerate(radii):
        worst = max(abs(math.hypot(row[2 * c], row[2 * c + 1]) - r) for row in samples)
        require(worst <= tol, f"node {c + 1} radius deviates by {worst:.3e} from {r!r}")


def check_one_trivial_multiplier(multipliers, tol: float = 1e-5):
    near = [m for m in multipliers if abs(complex(m) - 1.0) <= tol]
    require(len(near) == 1,
            f"{len(near)} multipliers lie within {tol} of 1, expected exactly one")


def check_liouville(multipliers, div_integral: float, tol: float) -> float:
    """Sum of log|mu| against the integral of the divergence (Liouville's
    formula for det of the monodromy).  Returns the residual."""
    total = sum(math.log(abs(complex(m))) for m in multipliers)
    resid = abs(total - div_integral)
    require(resid <= tol, f"sum log|mu| = {total!r} but the divergence integral "
                          f"is {div_integral!r} (residual {resid:.3e})")
    return resid


def check_hopf_multiplier(multipliers, rel_tol: float):
    expected = math.exp(-4 * math.pi)
    mus = sorted(multipliers, key=lambda m: abs(complex(m) - 1.0))
    other = complex(mus[-1])
    require(abs(other - expected) <= rel_tol * expected,
            f"non-trivial Hopf multiplier {other!r}, expected e^(-4 pi) = {expected!r}")


def check_parts(parts, expected):
    got = sorted(sorted(p) for p in parts)
    want = sorted(sorted(p) for p in expected)
    require(got == want, f"colouring {got} differs from the expected {want}")


def check_shift(thetas, expected: float, tol: float):
    """Some detected shift equals expected modulo 1."""
    dist = [min(abs(t - expected) % 1.0, 1.0 - abs(t - expected) % 1.0) for t in thetas]
    require(any(d <= tol for d in dist),
            f"no detected shift within {tol} of {expected!r}: {list(thetas)}")


# -- probe checks ---------------------------------------------------------------

def own_balanced(node_type, arrows, parts) -> bool:
    """Multiset test: same-coloured nodes share their node type and the
    multiset of (arrow type, tail colour) over their inputs.  `arrows` is a
    list of (arrow type, head, tail)."""
    colour = {c: k for k, part in enumerate(parts) for c in part}
    sig = {}
    for c in colour:
        ins = sorted((t, colour[tail]) for t, head, tail in arrows if head == c)
        sig[c] = (node_type[c], tuple(ins))
    return all(len({sig[c] for c in part}) == 1 for part in parts)


def check_classification(got: str, balanced: bool):
    want = "pattern-balanced-persists" if balanced else "pattern-broken"
    require(got == want, f"classified {got!r}, the multiset test says {want!r}")


def check_displacements(outcomes, max_ratio: float = 10.0):
    """Continuation displacements are O(eps): bounded by max_ratio * eps
    and, between the epsilons of one member, linear to within a factor 2.
    A bump whose support misses the orbit displaces it by exactly 0.
    `outcomes` holds (member, eps, orbit found, displacement)."""
    by_member: dict = {}
    for member, eps, found, disp in outcomes:
        require(found, f"continuation at eps={eps} found no orbit")
        require(0.0 <= disp <= max_ratio * eps,
                f"displacement {disp!r} at eps={eps} is not O(eps)")
        by_member.setdefault(member, {})[eps] = disp
    for disps in by_member.values():
        eps_sorted = sorted(disps)
        for lo, hi in zip(eps_sorted, eps_sorted[1:]):
            if disps[hi] == 0.0:  # the bump misses the orbit at every eps
                require(disps[lo] == 0.0, "displacement appears at a smaller eps")
                continue
            ratio = (disps[lo] / disps[hi]) / (lo / hi)
            require(0.5 <= ratio <= 2.0,
                    f"displacement does not scale with eps (ratio {ratio:.3f})")


def upstream(arrows, nodes) -> set:
    """Nodes with a directed path into `nodes`, the set included."""
    seen = set(nodes)
    grew = True
    while grew:
        grew = False
        for _t, head, tail in arrows:
            if head in seen and tail not in seen:
                seen.add(tail)
                grew = True
    return seen


# -- combinatorics ---------------------------------------------------------------

def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def set_partitions(items):
    """All set partitions of a list, by placing each item in turn."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]


def brute_force_balanced_count(node_type, arrows) -> int:
    """Balanced colourings among all set partitions of the nodes."""
    return sum(1 for parts in set_partitions(sorted(node_type))
               if own_balanced(node_type, arrows, parts))


def check_count(got: int, expected: int, what: str):
    require(got == expected, f"{what}: got {got}, expected {expected}")


def check_ring_rotations(autos, n: int):
    """The directed n-ring c -> c+1 has exactly the n rotations."""
    rotations = {tuple((c - 1 + k) % n + 1 for c in range(1, n + 1)) for k in range(n)}
    got = {tuple(sigma[c] for c in range(1, n + 1)) for sigma in autos}
    require(len(autos) == n and got == rotations,
            f"|Aut| = {len(autos)} for the {n}-ring, expected its {n} rotations")


def relabel(node_type, arrows, perm):
    """Copy of a network spec with node c renamed perm[c]."""
    return ({perm[c]: t for c, t in node_type.items()},
            [(t, perm[h], perm[tl]) for t, h, tl in arrows])
