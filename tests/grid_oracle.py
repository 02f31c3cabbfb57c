"""Grid computations that the package no longer makes, as test oracles.

The package evaluates the N-Jacobi basis only at the times it reads: the
focal scan's decomposed times, the claim times, the vanishing times of the
vertical fields.  Tests that check a fact over every grid time build the
whole stack here, from the same closed form.

The package takes the quotient's conjugate points from the focal kernels
and the Killing span.  The Morse-Sturm scan that found them before, RK4
integration of the transversal Jacobi equation and a root scan of the
matrix solution, is kept here as their independent oracle.
"""

import numpy as np

from polaris import linalg, transversal


def basis_on_grid(geod, derivative=False):
    """Frame values (or covariant derivatives) of the N-Jacobi basis fields
    at every grid time of ``geod``, shape (n_t, m, n_fields): one column per
    field, in the row order of ``n_jacobi_space``."""
    return transversal._closed_form(geod, *transversal._basis_modes(geod), geod.times,
                                    derivative)


def matrix_solution(geod, t):
    """(m, m) matrix whose columns are the N-Jacobi basis fields at time t."""
    return transversal._closed_form(geod, *transversal._basis_modes(geod), np.array([t]))[0]


def morse_sturm_roots(system):
    """Conjugate points (time, multiplicity) of Y'' + R(t) Y = 0 on the
    horizontal, R = ``system.r_script``: the matrix solution Y(0) = 0,
    Y'(0) = I in a nabla^h-parallel frame orthogonal to gamma', by RK4 over
    every other grid time from the grid's first, which must be the
    basepoint, and its roots by ``loop_matrix_roots``.  Returns the roots
    and the RK4 times."""
    g = system.geod
    assert g.base_index == 0, "the scan starts at the basepoint"
    frame = transversal.horizontal_frame(system)
    gp0 = system.p_h[0] @ system.gamma_coords
    gp0 = gp0 / np.linalg.norm(gp0)
    base = frame[0].T
    trans = linalg.orthonormalize(base - np.outer(base @ gp0, gp0))
    coeff0 = trans @ frame[0]
    q_dim = trans.shape[0]
    idx = np.arange(0, g.times.shape[0], 2)
    times = g.times[idx]
    if q_dim == 0:
        return [], times
    r_red = coeff0 @ (np.swapaxes(frame, 1, 2) @ (system.r_script @ frame)) @ coeff0.T
    gen = transversal._pair_generator
    steps = transversal._rk4_steps(gen(-r_red[idx[:-1]]), gen(-r_red[idx[:-1] + 1]),
                                   gen(-r_red[idx[1:]]), 2 * g.step)
    start = np.vstack([np.zeros((q_dim, q_dim)), np.eye(q_dim)])
    sol = transversal._propagate(steps, start)[:, :q_dim]
    return loop_matrix_roots(sol, times), times


def loop_matrix_roots(sol, times):
    """Roots (time, multiplicity) of the (n, q, q) matrix solution ``sol``,
    one pass of a loop over the times with the SVD at every time.  For
    k >= 2: where det Y is zero at t_k or changes sign toward t_(k+1)
    (linear interpolation), else at a grid-local minimum of sigma_min below
    100 FOCAL_SV_TOL; the multiplicity is read at the root's nearest time,
    and a root within 4 steps of the last one is merged into it."""
    tol = transversal.FOCAL_SV_TOL
    dets = np.linalg.det(sol)
    svals = np.linalg.svd(sol, compute_uv=False)
    smin = svals[:, -1]
    out = []
    for k in range(2, times.shape[0] - 1):
        root = None
        if dets[k] == 0.0 or (dets[k] * dets[k + 1] < 0):
            t0, t1 = times[k], times[k + 1]
            d0, d1 = dets[k], dets[k + 1]
            root = t0 if d0 == 0 else t0 - d0 * (t1 - t0) / (d1 - d0)
        elif smin[k] < smin[k - 1] and smin[k] <= smin[k + 1] and smin[k] < 100 * tol:
            root = times[k]
        if root is not None:
            kk = int(np.argmin(np.abs(times - root)))
            mult = max(int(np.sum(svals[kk] < max(tol, 2 * smin[kk]))), 1)
            if not out or abs(out[-1][0] - root) > 4 * (times[1] - times[0]):
                out.append((float(root), mult))
    return out
