"""Fixed-step integration drivers over generated right-hand sides.

The right-hand side of a system is generated as python source and compiled
twice from the same text: a scalar rhs, which the RK4 flow driver calls on
Python lists of floats, and a block rhs over an (n, B) array of states,
which the variational driver calls once per stage to get the state
derivative and a central-difference Jacobian together.  Additive bump
perturbations are passed as packed index/coefficient data, nested lists
for the bump loops, so that a perturbed system reuses the base
compilation; both drivers skip the bump pass when the pack is empty.
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
    equals 1 within delta of the centre's orbit and 0 beyond 2*delta.  The
    loops run on either the NumPy pack or its nested-list twin
    (CompiledField.lpack); the flow drivers pass the twin, so that they
    run on Python ints and floats.
    """
    for b in range(len(row_start) - 1):
        L = arg_len[b]
        zb = z[b]
        wb = w[b]
        d2 = inv_d2[b]
        block_perms = perms[perm_start[b]:perm_start[b + 1]]
        for r in range(row_start[b], row_start[b + 1]):
            g = gather[r]
            rest = 1.0
            for pp in block_perms:
                s = 0.0
                for j in range(L):
                    d = x[g[pp[j]]] - zb[j]
                    s += d * d
                rest *= 1.0 - _psi(s * d2)
                if rest == 0.0:
                    break
            val = 1.0 - rest
            if val != 0.0:
                o = out_off[r]
                for i in range(out_dim[b]):
                    out[o + i] += val * wb[i]


def _guard(x) -> int:
    """Status of a state under the blow-up guard."""
    m = np.max(np.abs(x))
    if m > _BLOWUP_NORM:
        return BLOWUP
    if not math.isfinite(m):
        return NONFINITE
    return OK


def rk4_flow(rhs, row_start, gather, arg_len, out_off, out_dim, perm_start,
             perms, z, inv_d2, w, x0, h, nsteps, every):
    """Classical fixed-step RK4 over rhs + bumps, on Python floats.

    x0 and the pack are lists; the state, the stage inputs and the slopes
    stay lists of floats, so the generated rhs and the bump loops run on
    Python floats.  Each stage combination keeps the operation order of
    the vector form x + (h/6) (k1 + 2 k2 + 2 k3 + k4).  Returns
    (x_final, traj, status), x_final an array and traj[(nsteps // every)
    + 1, n] holding the states at steps 0, every, 2*every, ...  The
    blow-up guard is checked every 64 steps and after the last one; a
    ZeroDivisionError, OverflowError or math domain error (ValueError) in
    a stage ends the flow with status NONFINITE.
    """
    n = len(x0)
    if len(row_start) > 1:
        def field(y, out):
            rhs(y, out)
            _apply_bumps(y, out, row_start, gather, arg_len, out_off, out_dim,
                         perm_start, perms, z, inv_d2, w)
    else:
        field = rhs

    h = float(h)
    half = 0.5 * h
    sixth = h / 6.0
    x = list(x0)
    k1, k2, k3, k4 = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    traj = np.empty((nsteps // every + 1, n))
    traj[0] = x
    for step in range(nsteps):
        try:
            field(x, k1)
            field([a + half * b for a, b in zip(x, k1)], k2)
            field([a + half * b for a, b in zip(x, k2)], k3)
            field([a + h * b for a, b in zip(x, k3)], k4)
        except (ZeroDivisionError, OverflowError, ValueError):
            return np.array(x), traj, NONFINITE
        x = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        if (step + 1) % every == 0:
            traj[(step + 1) // every] = x
        if step % 64 == 0 or step == nsteps - 1:
            status = _guard(x)
            if status != OK:
                return np.array(x), traj, status
    return np.array(x), traj, OK


def rk4_variational(rhs_block, row_start, gather, arg_len, out_off, out_dim,
                    perm_start, perms, z, inv_d2, w, x0, h, nsteps, fd):
    """Integrate state and fundamental matrix together.

    Each RK4 stage evaluates the block rhs once on the (n, 2n+1) block
    [y, y + fd e_j, y - fd e_j]: column 0 is the field at y and the central
    differences of the others are its Jacobian J, and the stage's
    fundamental-matrix slope is J p.  The systematic O(fd^2) bias integrates
    smoothly, so monodromy matrices come out far more accurately than
    differencing the time-T flow map.  Bumps are added column by column,
    on list copies of the block and of its rhs.  Returns (x, phi, status),
    checking the blow-up guard every 64 steps as the flow driver does.
    """
    n = x0.shape[0]
    x = x0.copy()
    phi = np.eye(n)
    shifts = np.hstack((np.zeros((n, 1)), fd * np.eye(n), -fd * np.eye(n)))
    out = np.empty((n, 2 * n + 1))
    bumped = len(row_start) > 1

    def stage(y, p):
        block = y.reshape((n, 1)) + shifts
        rhs_block(block, out)
        if bumped:
            cols = out.T.tolist()
            for y_col, out_col in zip(block.T.tolist(), cols):
                _apply_bumps(y_col, out_col, row_start, gather, arg_len,
                             out_off, out_dim, perm_start, perms, z, inv_d2, w)
            out.T[:] = cols
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
