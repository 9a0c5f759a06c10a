"""Fixed-step integration drivers over generated right-hand sides.

The right-hand side of a system is generated as python source and compiled
twice from the same text: a scalar rhs over one state vector, which the
RK4 flow driver calls, and a block rhs over an (n, B) array of states, which
the variational driver calls once per stage to get the state derivative
and a central-difference Jacobian together.  Additive bump perturbations
are passed as packed index/coefficient arrays so that a perturbed system
reuses the base compilation; both drivers skip the bump pass when the pack
is empty.
"""

from __future__ import annotations

import math

import numpy as np

OK = 0
BLOWUP = 1
NONFINITE = 2

_BLOWUP_NORM = 1e8


def _psi(s: float) -> float:
    """Smooth plateau profile in squared-radius units: 1 for s <= 1,
    0 for s >= 4, strictly between on the bridge."""
    if s <= 1.0:
        return 1.0
    if s >= 4.0:
        return 0.0
    a = math.exp(-1.0 / (4.0 - s))
    b = math.exp(-1.0 / (s - 1.0))
    return a / (a + b)


def _apply_bumps(x, out, row_start, gather, arg_len, out_off, out_dim,
                 perm_start, perms, z, inv_d2, w):
    """Add packed bump fields to out.

    Each bump b holds a centre z[b], squared inverse radius inv_d2[b] and a
    value vector w[b] (scaling already folded in).  Rows are the nodes the
    bump's input class contains; the bump value is the smooth union of the
    group translates of the base plateau, so it is vertex-group invariant,
    equals 1 within delta of the centre's orbit and 0 beyond 2*delta.
    """
    n_bumps = row_start.shape[0] - 1
    for b in range(n_bumps):
        L = arg_len[b]
        k = out_dim[b]
        for r in range(row_start[b], row_start[b + 1]):
            rest = 1.0
            for p in range(perm_start[b], perm_start[b + 1]):
                s = 0.0
                for j in range(L):
                    d = x[gather[r, perms[p, j]]] - z[b, j]
                    s += d * d
                rest *= 1.0 - _psi(s * inv_d2[b])
                if rest == 0.0:
                    break
            val = 1.0 - rest
            if val != 0.0:
                o = out_off[r]
                for i in range(k):
                    out[o + i] += val * w[b, i]


def _guard(x: np.ndarray) -> int:
    """Status of a state under the blow-up guard."""
    m = np.max(np.abs(x))
    if m > _BLOWUP_NORM:
        return BLOWUP
    if not math.isfinite(m):
        return NONFINITE
    return OK


def rk4_flow(rhs, row_start, gather, arg_len, out_off, out_dim, perm_start,
             perms, z, inv_d2, w, x0, h, nsteps, every):
    """Classical fixed-step RK4 over rhs + bumps.

    Returns (x_final, traj, status), traj[(nsteps // every) + 1, n] holding
    the states at steps 0, every, 2*every, ...  The blow-up guard is checked
    every 64 steps and after the last one.
    """
    n = x0.shape[0]
    bumped = row_start.shape[0] > 1

    def field(y):
        out = np.empty(n)
        rhs(y, out)
        if bumped:
            _apply_bumps(y, out, row_start, gather, arg_len, out_off, out_dim,
                         perm_start, perms, z, inv_d2, w)
        return out

    x = x0.copy()
    traj = np.empty((nsteps // every + 1, n))
    traj[0] = x
    for step in range(nsteps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % every == 0:
            traj[(step + 1) // every] = x
        if step % 64 == 0 or step == nsteps - 1:
            status = _guard(x)
            if status != OK:
                return x, traj, status
    return x, traj, OK


def rk4_variational(rhs_block, row_start, gather, arg_len, out_off, out_dim,
                    perm_start, perms, z, inv_d2, w, x0, h, nsteps, fd):
    """Integrate state and fundamental matrix together.

    Each RK4 stage evaluates the block rhs once on the (n, 2n+1) block
    [y, y + fd e_j, y - fd e_j]: column 0 is the field at y and the central
    differences of the others are its Jacobian J, and the stage's
    fundamental-matrix slope is J p.  The systematic O(fd^2) bias integrates
    smoothly, so monodromy matrices come out far more accurately than
    differencing the time-T flow map.  Returns (x, phi, status), checking
    the blow-up guard every 64 steps as the flow driver does.
    """
    n = x0.shape[0]
    x = x0.copy()
    phi = np.eye(n)
    shifts = np.hstack((np.zeros((n, 1)), fd * np.eye(n), -fd * np.eye(n)))
    out = np.empty((n, 2 * n + 1))
    bumped = row_start.shape[0] > 1

    def stage(y, p):
        block = y.reshape((n, 1)) + shifts
        rhs_block(block, out)
        if bumped:
            for col in range(2 * n + 1):
                _apply_bumps(block[:, col], out[:, col], row_start, gather,
                             arg_len, out_off, out_dim, perm_start, perms, z,
                             inv_d2, w)
        jac = (out[:, 1:n + 1] - out[:, n + 1:]) / (2.0 * fd)
        # J p summed over the inner index in order, not by BLAS, so that phi
        # does not depend on the BLAS build's summation order
        jp = (jac.reshape((n, n, 1)) * p.reshape((1, n, n))).sum(axis=1)
        return out[:, 0].copy(), jp

    for step in range(nsteps):
        k1, p1 = stage(x, phi)
        k2, p2 = stage(x + 0.5 * h * k1, phi + 0.5 * h * p1)
        k3, p3 = stage(x + 0.5 * h * k2, phi + 0.5 * h * p2)
        k4, p4 = stage(x + h * k3, phi + h * p3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi = phi + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        if step % 64 == 0 or step == nsteps - 1:
            status = _guard(x)
            if status == OK and not np.all(np.isfinite(phi)):
                status = NONFINITE
            if status != OK:
                return x, phi, status
    return x, phi, OK


def empty_pack() -> tuple:
    """A perturbation pack with no bumps."""
    return (np.zeros(1, dtype=np.int64),          # row_start
            np.zeros((1, 1), dtype=np.int64),     # gather
            np.zeros(1, dtype=np.int64),          # arg_len
            np.zeros(1, dtype=np.int64),          # out_off
            np.zeros(1, dtype=np.int64),          # out_dim
            np.zeros(1, dtype=np.int64),          # perm_start
            np.zeros((1, 1), dtype=np.int64),     # perms
            np.zeros((1, 1)),                     # z
            np.zeros(1),                          # inv_d2
            np.zeros((1, 1)))                     # w


def compile_rhs(source: str, namespace: dict, block: bool = False):
    """Exec generated source and return the resulting rhs(s, out) function.

    The source calls sin/cos/exp/tanh by bare name.  They are bound to
    math's for the scalar rhs, where s and out are state vectors, and to
    NumPy's for the block rhs (block=True), where they are (n, B) arrays
    holding one state per column.
    """
    lib = np if block else math
    ns = {name: getattr(lib, name) for name in ("sin", "cos", "exp", "tanh")}
    ns.update(namespace)
    exec(compile(source, "<ccnet-rhs>", "exec"), ns)
    return ns["rhs"]
