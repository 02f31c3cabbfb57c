"""Fields along horizontal geodesics of isometric actions on model manifolds.

Everything runs on a fixed-step grid in a parallel orthonormal frame along
the geodesic; in that frame the ambient curvature operator R(., gamma')gamma'
is a constant matrix for every supported model, so Jacobi fields have a
closed-form eigenmode solution with an RK4 fallback for cross-checks.  On
top of the Jacobi layer sit the focal-point scan, the extended vertical and
horizontal bundles V_t / H_t through singular times, the extended skew
tensor A_t, the transversal Jacobi equation, the symplectic pairing, and
the quotient's conjugate points with their Morse-Sturm index check.

Work on the grid is stacked and builds only what it reads.  The geodesic
keeps its parallel frame at the basepoint only, where every field starts;
gamma' is constant in it.  The N-Jacobi basis is held as initial data and
mode coefficients and never evaluated whole over the whole grid: the closed
form runs at the focal scan's decomposed, refined and focal times and at
the claim times, and over the grid only for the one field of the RK4
cross-check and the r vertical fields of the transversal system.  The focal
scan decomposes only the grid times that a Lipschitz bound of sigma_min
cannot rule out, refines its grid-local minima together by lockstep
safeguarded Newton, and gives the full-grid scan's result; its work is in
``focal_scan_counters``.

``MAX_GRID_ENTRIES`` is checked where each array is built, before it is
allocated: n_t x D by ``OrbitGeodesic`` (its times, the RK4 cross-check's
states), blocks of at most that many entries in the focal scan's two SVD
passes (each time's values do not depend on its block), and n_t x D^2 by
``TransversalSystem`` for its (n_t, m, m) stacks.  So only ``transversal``
refuses the larger grids.  The peak traced memory (``tracemalloc``) of one
``analyze`` record at the default step and direction, from a unit
``find_regular_point`` at seeds 0 and 1, is mostly one focal block of 2^22
entries (34 MB) on the two larger bundles:

    bundle (D)      jacobi-scan   variational-completeness   transversal
    ad so(8) (28)   5.8-8.3 MB    4.6-7.2 MB                 157.9 MB
    ad so(10) (45)  35-41 MB      34-41 MB                   error, 1.6 MB
    ad so(11) (55)  42-44 MB      42-43 MB                   error, 2.8 MB

On ad so(8) one (n_t, m, m) stack is 19.7 MB.  The system keeps four (p_v,
p_h, A and R - 3A^2) and frees its stencil stacks once read, so its
constructor peaks at five (98.6 MB); the record's peak is the horizontal
frame's RK4 propagators, four stacks more than the system's.

Variational completeness is decided on initial data (Bott-Samelson): a
Jacobi field is fixed by its value and covariant derivative at the
basepoint, and the Killing field of a generator A restricts to the Jacobi
field with initial data (A x, P_x A xi), P_x the model's tangent
projection; ``killing_data`` forms them, and a geodesic holds its own for
every check that reads them.  Both probes test membership in their span,
``killing_span``, one SVD of an (n_gen, 2D) matrix: the initial data of
the vanishing fields at each focal time, and those of the eigenfields
(1 - lambda s) u of the Di Scala-Olmos probe, with J'(0) weighted by |x|
so that no angle depends on the scale of x.  Neither reads a grid.  The
Killing restrictions also span the vertical Jacobi fields Upsilon (Wilking),
whose N-Jacobi coefficients are the projections of those data on the
orthonormal rows of ``n_jacobi_space``: one row space of n_gen rows.

The vertical fibre at every grid time comes from one
``linalg.row_space_stack`` call over the r vertical fields' values, whose
counts of nonzero rows are the orbit rank and the rank test of the vertical
fields at each time; the bundles are kept as projectors p_v and p_h, and
only the start of the horizontal frame needs a basis of H_t.  The
vertical-derivative claim is one stacked least-squares solve over every
strided time and field, skipping the times where the vertical fields lose
rank.  The quotient's conjugate points are not integrated: they are the
focal times whose vanishing N-Jacobi fields are not all Killing
restrictions (Wilking), read off the focal scan's kernels and the Killing
span, the data that the VC probe reads.  The transversal Jacobi equation
gives their independent check, the Morse index of one piecewise-linear
index form in a nabla^h-parallel frame, assembled without a loop over its
elements.  Every RK4 integration (the Jacobi cross-check and the
horizontal frame) goes through one helper, ``_rk4_steps``, that returns
each step's propagator of the linear system, and one blocked scan,
``_propagate``, that chains n propagators with about 2 sqrt(n) stacked
matmuls instead of one per step (one block's, for the one constant step of
the cross-check).  The symplectic form and the transversal-equation
residual take stacks of fields, one column per field.  The focal scan,
with the right singular vectors of each focal time's kernel, is cached on
the geodesic like the basis modes, so checks that share a geodesic run it
once.  Tolerances, strides and draw counts are constants.

The O'Neill check reads the A-tensor at the basepoint only, in closed form
from the same Killing initial data, and builds no grid.  Along the
geodesic with initial velocity xi the vertical fields are the Killing
restrictions, with values W (rows A x) and covariant derivatives W' (rows
P_x A xi).  With one SVD W = U S V^T, the orthonormal rows W^ = S^-1 U^T W
span the vertical space V and W^' = S^-1 U^T W' are their derivatives.  The
vertical projector p_v = W^T (W W^T)^-1 W then has the exact derivative
dp_v = X + X^T with X = p_h W^'^T W^, p_h = P_x - p_v, and A =
skew((p_h - p_v) dp_v) = X - X^T, since X maps V into H.  The O'Neill
check and the rescale probe share one quotient-curvature estimator, which
takes a stack of planes to one quotient search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .polarity import OrthogonalRep, orbifold_point_test
from .symspace import ModelManifold
from .weyl import QuotientOptimizerConfig, quotient_distance

DEFAULT_STEP = 1e-3
MAX_STEP = 1e-2
FOCAL_SV_TOL = 1e-7         # singular values below it mark focal/conjugate times
FOCAL_COARSE_STRIDE = 16    # grid stride of the focal scan's first SVD pass
FOCAL_LIPSCHITZ_SAFETY = 1.1    # factor on the focal scan's Lipschitz bound of sigma_min
FOCAL_SV_ROUNDING = 1e-12   # rounding of a computed sigma_min, relative to |Y|_2
KILLING_ANGLE_TOL = 1e-6    # angle from the Killing span below which a field is Killing
VERTICAL_RANK_RTOL = 1e-8   # relative rank cut of the vertical Jacobi fields
CLAIM_STRIDE = 50           # grid stride of the vertical-derivative claim check
INDEX_ELEMENTS = 64         # elements of the piecewise-linear Morse-Sturm index form
PROBE_DRAWS = 64            # normal directions drawn by the eigenfield probe
PROBE_MIN_EIG = 1e-6        # least |shape-operator eigenvalue| the probe accepts
ONEILL_SEPARATION = 0.08    # larger separation of the O'Neill quotient estimate
RESCALE_ETA = 0.3           # rescale-probe separation / distance to the singular point
# Most entries of one array over a grid: n_t x D for a geodesic in R^D, one focal
# scan block, n_t x D^2 for the transversal stacks (9x the largest catalog grid).
MAX_GRID_ENTRIES = 2 ** 22


class TransversalError(ValueError):
    pass


def _check_grid_budget(n_times: float, per_time: int) -> None:
    """Raise unless an array of ``per_time`` entries at each of ``n_times``
    grid times fits in ``MAX_GRID_ENTRIES``; checked before it is built."""
    if not n_times * per_time <= MAX_GRID_ENTRIES:
        raise TransversalError(
            f"a grid of {n_times:.4g} times x {per_time} entries exceeds "
            f"MAX_GRID_ENTRIES = {MAX_GRID_ENTRIES}; use a shorter span or a larger step")


def _unit_vector(v, dim: int, name: str) -> np.ndarray:
    """``v`` as an array; raise unless it is a finite unit vector of R^dim."""
    v = np.asarray(v, float)
    if v.shape != (dim,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
        raise TransversalError(f"{name} must be a finite unit vector of length {dim}")
    return v


def _check_normal(manifold: ModelManifold, point, rows, v, name: str) -> np.ndarray:
    """``v`` as an array; raise unless it is a unit vector tangent to the
    model at ``point`` and normal to the orbit, whose tangent rows are ``rows``."""
    v = _unit_vector(v, point.size, name)
    if np.linalg.norm(v - manifold.project_tangent(point, v)) > 1e-9:
        raise TransversalError(f"{name} must be tangent to the model")
    if rows.size and float(np.max(np.abs(rows @ v))) > 1e-10:
        raise TransversalError(f"{name} must be normal to the orbit")
    return v


class OrbitGeodesic:
    """A horizontal geodesic with its grid, basepoint frame and shape data.

    ``direction`` must be a unit normal to the orbit at ``point`` (tangent
    to the model); None takes the first unit normal from ``linalg.kernel``
    (orthogonal to the model's ``radial_rows`` too).  A given direction is
    checked to tolerance, then projected exactly onto the model tangent and
    off the orbit, and renormalised.  The point, the direction and the span must be finite, and n_t x D within
    ``MAX_GRID_ENTRIES`` (larger arrays check their own sizes).  The sign
    convention of the shape operator is fixed by the position normal on a
    Euclidean orbit: S_(p/|p|) = -(1/|p|) id.
    """

    def __init__(self, rep: OrthogonalRep, manifold: ModelManifold,
                 point, direction, span=(0.0, float(np.pi)),
                 step: float = DEFAULT_STEP):
        if not (np.isfinite(step) and step > 0):
            raise TransversalError(f"step size rejected (h = {step:g} must be positive and finite)")
        if step > MAX_STEP:
            raise TransversalError(f"step size rejected (h = {step:g} > {MAX_STEP:g})")
        point = np.asarray(point, float)
        given = [point] if direction is None else [point, np.asarray(direction, float)]
        if not all(np.all(np.isfinite(x)) for x in given):
            raise TransversalError("the basepoint and direction must be finite")
        lo, hi = float(span[0]), float(span[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= 0.0 <= hi):
            raise TransversalError("the grid span must be finite and contain the basepoint time 0")
        # the float count, checked before anything is allocated
        _check_grid_budget((hi - lo) / step + 1, point.size)
        manifold.validate_point(point)
        rows = rep.tangent_rows(point)
        if direction is None:
            normals = linalg.kernel(np.vstack([rows, manifold.radial_rows(point)]))
            if normals.shape[0] == 0:
                raise TransversalError("the orbit has no normal direction at the basepoint")
            direction = normals[0]
        direction = _check_normal(manifold, point, rows, direction, "direction")
        # accepted within tolerance, used exactly: a direction drawn as the
        # small normal part of a larger vector carries that vector's rounding
        rank, _, right = linalg.svd_bases(rows)
        direction = manifold.project_tangent(point, direction)
        direction = direction - linalg.project_span(right[:rank], direction)
        direction = direction / np.linalg.norm(direction)
        self.rep = rep
        self.manifold = manifold
        self.point = point
        self.direction = direction
        self.step = float(step)
        n = int(round((hi - lo) / step)) + 1
        self.times = lo + step * np.arange(n)
        self.base_index = int(round(-lo / step))
        if abs(self.times[self.base_index]) > 1e-12:
            raise TransversalError("span start must be an integer number of steps")
        # the parallel frame at the basepoint only: every field starts there
        frames, self.curvature = manifold.parallel_frames(
            point, direction, self.times[self.base_index:self.base_index + 1])
        self.frame = frames[0]
        self.dim = self.frame.shape[1]
        # diagonal in the parallel frame: a column's rate is sqrt(its entry),
        # 1 on a flat column, where the closed form is a + t b
        evals = np.diag(self.curvature)
        if float(np.min(evals)) < -1e-10:
            raise TransversalError("model curvature operator must be positive semidefinite")
        self._curved = evals > 1e-12
        self._rates = np.sqrt(np.where(self._curved, evals, 1.0))
        # the orbit lies in the model: one SVD in the frame splits its tangent space
        rank, _, right = linalg.svd_bases(rows @ self.frame)
        self.orbit_tangent = right[:rank] @ self.frame.T
        self.normal_basis = right[rank:] @ self.frame.T
        self.shape_operator = shape_operator(rep, point, direction, self.orbit_tangent)
        self.killing_data = killing_data(rep, manifold, point, direction)
        self._cache = {}


def shape_operator(rep: OrthogonalRep, point, direction, orbit_basis: np.ndarray):
    """Orbit shape operator S_xi on an orthonormal orbit-tangent basis.

    Entries are <grad_{u_a} X_b^*, xi> for Killing fields realising the basis;
    the matrix is symmetric up to rounding, and its symmetric part is
    returned.  S_xi is linear in xi, so an (..., D) stack of directions
    gives an (..., k, k) stack of matrices from one contraction.
    """
    rows = rep.tangent_rows(np.asarray(point, float))
    # kill[b, :, a] = X_b u_a, X_b the Killing field realising orbit_basis[b]
    kill = np.tensordot(orbit_basis @ np.linalg.pinv(rows.T).T, rep.generators, 1) \
        @ orbit_basis.T
    s = np.einsum("...x,bxa->...ab", np.asarray(direction, float), kill)
    return (s + np.swapaxes(s, -1, -2)) / 2


def n_jacobi_space(geod: OrbitGeodesic):
    """Initial conditions spanning the N-Jacobi space (dimension dim M).

    Returns ambient ``(j0, dj0)``, two (dim M, D) arrays whose rows are the
    values and covariant derivatives at the basepoint: first the
    orbit-tangent directions u with J(0)=u, J'(0)=-S_xi u, then the
    orbit-normal directions w with J(0)=0, J'(0)=w.
    """
    tangent, normal = geod.orbit_tangent, geod.normal_basis
    return (np.vstack([tangent, np.zeros_like(normal)]),
            np.vstack([-(geod.shape_operator @ tangent), normal]))


def _closed_form(geod: OrbitGeodesic, a: np.ndarray, b: np.ndarray,
                 times: np.ndarray, derivative: bool = False) -> np.ndarray:
    """Closed-form Jacobi fields at an array of times.

    Columns of ``a`` and ``b`` (shape (m, n)) are the initial values and
    covariant derivatives at the basepoint time 0, in the parallel frame,
    where the curvature matrix is diagonal.  Returns the frame values of
    every column at every time, shape (n_times, m, n), or with ``derivative``
    their covariant derivatives.  Y(t) = diag(c(t)) a + diag(s(t)) b is
    linear in the 2m coefficients (c(t), s(t)), so each time is one (1, 2m)
    x (2m, m n) product, taken time by time in one stacked matmul: a time's
    values do not depend on the other times evaluated with it.
    """
    curved, r = geod._curved, geod._rates
    times = np.asarray(times, float)
    rt = np.multiply.outer(times, r)
    cos = np.where(curved, np.cos(rt), 1.0)
    sin = np.sin(rt)
    if derivative:
        coef = np.concatenate([np.where(curved, -r * sin, 0.0), cos], axis=1)
    else:
        coef = np.concatenate([cos, np.where(curved, sin / r, times[:, None])], axis=1)
    m, n = a.shape
    terms = np.eye(m)[:, :, None] * np.stack([a, b])[:, :, None, :]  # [., k, i, j] = d_ik x_kj
    return (coef[:, None, :] @ terms.reshape(2 * m, m * n)).reshape(-1, m, n)


def jacobi_integrate(geod: OrbitGeodesic, j0, dj0, method: str = "closed-form"):
    """Solve the Jacobi equation along the geodesic from ambient initial data.

    Initial data lives at the basepoint gamma(0).  ``closed-form`` uses the
    constant-curvature eigenmode solution; ``rk4`` integrates the same
    equation with classical RK4 at the grid step so the two paths
    cross-check each other.  Returns ``(y, dy)``, the frame values and
    covariant derivatives, each of shape (n_t, m).
    """
    if method == "closed-form":
        return _field_on_grid(geod, j0, dj0), _field_on_grid(geod, j0, dj0, derivative=True)
    if method != "rk4":
        raise TransversalError(f"unknown method {method!r}")
    if geod.base_index != 0:
        raise TransversalError("rk4 integration needs the grid to start at the basepoint")
    m = geod.dim
    gen = _pair_generator(-geod.curvature[None])
    step = _rk4_steps(gen, gen, gen, geod.step)
    states = _propagate(np.broadcast_to(step, (geod.times.shape[0] - 1, 2 * m, 2 * m)),
                        np.concatenate([geod.frame.T @ np.asarray(x, float) for x in (j0, dj0)]))
    return states[:, :m], states[:, m:]


def _field_on_grid(geod: OrbitGeodesic, j0, dj0, derivative: bool = False) -> np.ndarray:
    """Closed-form frame values (or covariant derivatives) at every grid time,
    (n_t, m), of the Jacobi field with ambient basepoint data (j0, dj0)."""
    a, b = ((geod.frame.T @ np.asarray(x, float))[:, None] for x in (j0, dj0))
    return _closed_form(geod, a, b, geod.times, derivative)[:, :, 0]


def _pair_generator(force: np.ndarray) -> np.ndarray:
    """Stack of generators [[0, I], [F, 0]] of y' = z, z' = F y.

    ``force`` is an (n, d, d) stack; the state is the pair (y, z) stacked
    into one vector or matrix of 2d rows.
    """
    n, d, _ = force.shape
    out = np.zeros((n, 2 * d, 2 * d))
    out[:, :d, d:] = np.eye(d)
    out[:, d:, :d] = force
    return out


def _rk4_steps(m_start: np.ndarray, m_mid: np.ndarray, m_end: np.ndarray,
               dt: float) -> np.ndarray:
    """Classical-RK4 step propagators of the linear system y' = M(t) y.

    ``m_start``, ``m_mid`` and ``m_end`` are (n, d, d) stacks of M at the
    start, midpoint and end of each step.  Step i maps y to P_i y, exactly
    the update of the four RK4 stages, so integrating is one matmul per
    step.  The stages are accumulated in place: two (n, d, d) temporaries.
    """
    prop = m_start.copy()           # sum of the stage matrices K_j, y-linear
    stage = m_start.copy()
    tmp = np.empty_like(prop)
    for m, c, w in ((m_mid, dt / 2, 2.0), (m_mid, dt / 2, 2.0), (m_end, dt, 1.0)):
        np.matmul(m, stage, out=tmp)        # K_j = M (I + c K_{j-1})
        tmp *= c
        tmp += m
        stage, tmp = tmp, stage
        np.multiply(stage, w, out=tmp)
        prop += tmp
    prop *= dt / 6
    prop += np.eye(prop.shape[-1])
    return prop


def _propagate(steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """States x_0 = start, x_{i+1} = steps[i] @ x_i, stacked along axis 0.

    A blocked scan: the n steps are cut into blocks of b = ceil(sqrt(n)).
    Every block's local prefix products are formed together, one stacked
    matmul per position in a block; the block-start states are carried
    sequentially, one matmul per block; one final stacked matmul applies
    each local product to its block's start.  That is about 2 sqrt(n)
    Python-level matmuls instead of n, and one (n, d, d) temporary.
    ``steps`` may be a read-only broadcast stack; ``start`` is (d,) or (d, k).
    When one matrix is broadcast to every step (``jacobi_integrate``), one
    block's local products, in the same order, serve every block.
    """
    n, d = steps.shape[0], start.shape[0]
    x0 = start[:, None] if start.ndim == 1 else start
    b = math.isqrt(n - 1) + 1 if n else 1
    n_blocks = -(-n // b)
    head = steps[:b] if n > 1 and steps.strides[0] == 0 else steps
    # padded to whole blocks, so both stacks reshape to (n_blocks, b, ...);
    # the padding's products land past state n and are dropped
    local = np.empty((-(-head.shape[0] // b) * b, d, d))
    local[head.shape[0]:] = 0.0
    local[::b] = head[::b]
    for i in range(1, b):
        rows = head[i::b]           # position i of every block that has one
        count = rows.shape[0]
        np.matmul(rows, local[i - 1::b][:count], out=local[i::b][:count])
    local = np.broadcast_to(local.reshape(-1, b, d, d), (n_blocks, b, d, d))
    out = np.empty((n_blocks * b + 1,) + x0.shape)
    out[0] = x0
    for j in range(1, n_blocks):
        np.matmul(local[j - 1, -1], out[(j - 1) * b], out=out[j * b])
    starts = out[:n_blocks * b:b, None].copy()
    np.matmul(local, starts, out=out[1:].reshape(n_blocks, b, *x0.shape))
    return out[:n + 1].reshape((n + 1,) + start.shape)


def _cached(owner, key: str, make):
    """``owner._cache[key]``, from ``make()`` on the first call."""
    if key not in owner._cache:
        owner._cache[key] = make()
    return owner._cache[key]


def _basis_modes(geod: OrbitGeodesic):
    """Mode coefficients (a, b), each (m, dim M), of the N-Jacobi basis."""
    def make():
        j0, dj0 = n_jacobi_space(geod)
        return (j0 @ geod.frame).T, (dj0 @ geod.frame).T
    return _cached(geod, "basis_modes", make)


def _sigma_lipschitz(geod: OrbitGeodesic) -> float:
    """A constant L with |sigma_min(t) - sigma_min(t')| <= L |t - t'| for all t, t'.

    sigma_min is that of the matrix solution M(t).  Row i of M(t) is
    a_i cos(r_i t) + b_i sin(r_i t) / r_i (a_i + t b_i on a flat mode, where
    r_i = 0 here), so its derivative has norm at most r_i |a_i| + |b_i| and
    |M'(t)|_2 <= |M'(t)|_F <= L = sqrt(sum_i (r_i |a_i| + |b_i|)^2);
    sigma_min is 1-Lipschitz in the spectral norm.
    """
    a, b = _basis_modes(geod)
    rate = np.where(geod._curved, geod._rates, 0.0)
    rows = rate * np.linalg.norm(a, axis=1) + np.linalg.norm(b, axis=1)
    return float(np.sqrt(np.sum(rows ** 2)))


def _grid_singular_values(geod: OrbitGeodesic, index: np.ndarray) -> np.ndarray:
    """Singular values, descending, of the matrix solution at the grid times
    ``index``: the closed form at those times only, one column per field,
    and one stacked SVD, in blocks of at most ``MAX_GRID_ENTRIES`` entries.
    Both run time by time, so each time gets the values that the fields
    over the whole grid, in one block, give it."""
    per_block = max(1, MAX_GRID_ENTRIES // geod.dim ** 2)
    out = np.empty((index.shape[0], geod.dim))
    for i in range(0, index.shape[0], per_block):
        block = geod.times[index[i:i + per_block]]
        out[i:i + per_block] = np.linalg.svd(_closed_form(geod, *_basis_modes(geod), block),
                                             compute_uv=False)
    return out


def focal_points(geod: OrbitGeodesic) -> list:
    """Focal times of the start orbit: roots of the matrix-solution sigma_min.

    Interior grid-local minima t_k of the smallest singular value, other
    than the basepoint t = 0 where every normal N-Jacobi field vanishes, are
    refined toward its zero in [t_(k-1), t_(k+1)], all at once by lockstep
    safeguarded Newton (``_refine_minima``); a refined time where sigma_min
    is below ``FOCAL_SV_TOL`` counts as a focal time with multiplicity the
    number of singular values below the threshold there, and one within 10
    grid steps of the last focal time is merged into it.  Only the grid times that
    can host such a minimum are decomposed.  The SVD runs first at every
    ``FOCAL_COARSE_STRIDE``-th grid time t_j and the last.  With L from
    ``_sigma_lipschitz``, every t in [t_(k-1), t_(k+1)] has

        sigma_min(t) >= sigma_min(t_j) - L (|t_k - t_j| + h)

    for the coarse times t_j on either side of t_k.  A time k is skipped
    when that bound, with L times ``FOCAL_LIPSCHITZ_SAFETY``, is at least
    ``FOCAL_SV_TOL`` plus twice the rounding slack ``FOCAL_SV_ROUNDING``
    times a bound on |Y| (for the computed sigma_min at t_j and at the
    refined time): no refinement there could be accepted.  The others and
    their neighbours are decomposed and run the full-grid test, so the
    result is the full-grid scan's.  The scan is cached on ``geod``; every
    call returns a fresh list, and ``focal_scan_counters`` gives its work.
    """
    return list(_cached(geod, "focal_scan", lambda: _focal_scan(geod))[0])


def focal_scan_counters(geod: OrbitGeodesic) -> dict:
    """Deterministic work counters of the focal scan of ``geod``, run if it
    has not run: ``grid_points``, the grid times; ``decomposed``, the grid
    times whose matrix solution went to the SVD; ``refinements``, the
    grid-local minima refined; ``refinement_rounds``, the lockstep Newton
    rounds that refined them."""
    return dict(_cached(geod, "focal_scan", lambda: _focal_scan(geod))[1])


def _focal_kernels(geod: OrbitGeodesic) -> list:
    """The ``_initial_data`` rows of the N-Jacobi fields that vanish at each
    focal time of ``focal_points``, one (multiplicity, 2D) array per time:
    the scan's right singular vectors below ``FOCAL_SV_TOL`` there."""
    data = _initial_data(geod.point, *n_jacobi_space(geod))
    kernels = _cached(geod, "focal_scan", lambda: _focal_scan(geod))[2]
    return [kernel @ data for kernel in kernels]


def _focal_scan(geod: OrbitGeodesic):
    """The scan of ``focal_points``, uncached: its focal list, counters and
    the N-Jacobi coefficient rows of each focal time's kernel."""
    n = geod.times.shape[0]
    stride = FOCAL_COARSE_STRIDE
    coarse = np.unique(np.r_[0:n:stride, n - 1])
    svals = _grid_singular_values(geod, coarse)
    smin = np.empty(n)
    smin[coarse] = svals[:, -1]
    # the bound above at every grid time from its two nearest coarse times,
    # with L in units of the grid step
    lip = FOCAL_LIPSCHITZ_SAFETY * _sigma_lipschitz(geod) * geod.step
    k = np.arange(n)
    left = k // stride
    right = np.minimum(left + 1, coarse.shape[0] - 1)
    bound = np.maximum(svals[left, -1] - lip * (k - coarse[left] + 1),
                       svals[right, -1] - lip * (coarse[right] - k + 1))
    # |Y(t)|_2 <= sigma_max(t_j) + L |t - t_j| bounds the norm near the grid
    slack = FOCAL_SV_ROUNDING * (float(np.max(svals[:, 0])) + lip * stride)
    candidates = np.flatnonzero(bound[1:-1] < FOCAL_SV_TOL + 2 * slack) + 1
    # every normal N-Jacobi field vanishes at the basepoint, which is no focal time
    candidates = candidates[candidates != geod.base_index]
    rest = np.setdiff1d(np.r_[candidates - 1, candidates, candidates + 1], coarse)
    if rest.size:
        smin[rest] = _grid_singular_values(geod, rest)[:, -1]
    minima = candidates[(smin[candidates] <= smin[candidates - 1])
                        & (smin[candidates] <= smin[candidates + 1])]
    refined, s_at, vh_at, rounds = _refine_minima(geod, minima)
    out, kernels = [], []
    for t_star, s, vh in zip(refined, s_at, vh_at):
        if s[-1] < FOCAL_SV_TOL:
            if not out or abs(out[-1][0] - t_star) > 10 * geod.step:
                out.append((float(t_star), int(np.sum(s < FOCAL_SV_TOL))))
                kernels.append(vh[s < FOCAL_SV_TOL])
    counters = {"grid_points": int(n), "decomposed": int(coarse.shape[0] + rest.shape[0]),
                "refinements": int(minima.shape[0]), "refinement_rounds": rounds}
    return out, counters, kernels


def _refine_minima(geod: OrbitGeodesic, index: np.ndarray):
    """Refine the grid-local minima t_k (``index``) of sigma_min to its zeros.

    Lockstep safeguarded Newton on sigma_min, every minimum at once: each
    starts at t_k with the bracket [t_(k-1), t_(k+1)].  A round evaluates
    the matrix solution Y and its derivative Y' at the live times and takes
    one stacked SVD; with u and v the singular vectors of sigma_min, its
    derivative is sigma' = u^T Y' v.  The bracket shrinks to the side of t
    where the sign of sigma' puts the zero, and the step is -sigma / sigma',
    or a bisection of the bracket where that step is not finite or leaves
    the bracket.  A time retires when the step is at the rounding level of
    t and of sigma (sigma <= 4 eps (|t sigma'| + sigma_max)) or its bracket
    is under 1e-14.  Each time's arithmetic is its own, so it does not
    depend on the other minima.  Returns the refined times, the singular
    values there (descending, one row each) and their right singular
    vectors (one (m, m) stack each), from one stacked SVD, and the rounds
    run.
    """
    times = geod.times
    modes = _basis_modes(geod)
    t, lo, hi = times[index], times[index - 1], times[index + 1]
    eps = np.finfo(float).eps
    live = np.arange(t.shape[0])
    rounds = 0
    while live.size:
        rounds += 1
        at = t[live]
        u, s, vh = np.linalg.svd(_closed_form(geod, *modes, at))
        slope = np.einsum("ki,kij,kj->k", u[:, :, -1],
                          _closed_form(geod, *modes, at, derivative=True), vh[:, -1])
        sigma = s[:, -1]
        done = sigma <= 4 * eps * (np.abs(at * slope) + s[:, 0])
        rising = slope >= 0.0
        hi[live] = np.where(rising, at, hi[live])
        lo[live] = np.where(rising, lo[live], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = at - sigma / slope
        inside = (newton > lo[live]) & (newton < hi[live])
        t[live] = np.where(done, at, np.where(inside, newton, (lo[live] + hi[live]) / 2))
        live = live[~done & (hi[live] - lo[live] >= 1e-14)]
    _, s, vh = np.linalg.svd(_closed_form(geod, *modes, t))
    return t, s, vh, rounds


def _initial_data(point, values, derivatives) -> np.ndarray:
    """Rows (J(0), w J'(0)) of Jacobi fields from x = ``point``, w = |x| (1 at x = 0).
    x -> c x takes J along x + t xi to c J(t / c) along c x + t xi, with c times
    J's row, so angles between rows do not depend on the scale of a Euclidean x."""
    weight = float(np.linalg.norm(point)) or 1.0
    return np.concatenate([values, weight * derivatives], axis=-1)


def killing_data(rep: OrthogonalRep, manifold: ModelManifold, point, direction):
    """The (n_gen, D) rows A x and P_x A xi, J(0) and J'(0) of the Killing
    fields along the geodesic from x = ``point`` with velocity ``direction``."""
    return rep.tangent_rows(point), manifold.project_tangent(point, rep.tangent_rows(direction))


def killing_span(point, values, derivatives) -> np.ndarray:
    """Orthonormal (r, 2D) rows, from one SVD, spanning the rows
    ``_initial_data`` of the Killing fields' ``killing_data`` at ``point``.
    A Jacobi field is fixed by (J(0), J'(0)), so it is a Killing
    restriction exactly when its row lies in that span."""
    rank, _, right = linalg.svd_bases(_initial_data(point, values, derivatives))
    return right[:rank]


def killing_basis(geod: OrbitGeodesic) -> np.ndarray:
    """``killing_span`` at the basepoint and direction of ``geod``, cached on it."""
    return _cached(geod, "killing_basis", lambda: killing_span(geod.point, *geod.killing_data))


def _span_angles(span: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Angle of each (nonzero) row of ``rows`` from the span of the
    orthonormal rows ``span``: pi/2 for an empty span."""
    inside = linalg.project_span(span, rows)
    return np.arctan2(np.linalg.norm(rows - inside, axis=-1), np.linalg.norm(inside, axis=-1))


# ---------------------------------------------------------------------------
# variational completeness and the Di Scala-Olmos probe
# ---------------------------------------------------------------------------

@dataclass
class FocalKernelRecord:
    time: float
    multiplicity: int
    angle: float


@dataclass
class VariationalCompletenessReport:
    ok: bool
    worst_angle: float
    records: list


def variational_completeness_probe(geod: OrbitGeodesic, angle_tol: float = KILLING_ANGLE_TOL
                                   ) -> VariationalCompletenessReport:
    """Check that every vanishing N-Jacobi field is a Killing restriction.

    At each focal time, every right singular vector c of the matrix
    solution whose singular value is below ``FOCAL_SV_TOL`` gives an
    N-Jacobi field that vanishes there, with initial data (c j0, c dj0)
    from ``n_jacobi_space``; the focal scan keeps those vectors.  The angle
    of its row (c j0, |x| c dj0) (``_initial_data``) from the span
    ``killing_basis`` is zero exactly when the field is a Killing
    restriction.  Each record carries the worst angle at its focal time,
    and the report the worst over all of them.
    """
    records = []
    for (t_star, mult), rows in zip(focal_points(geod), _focal_kernels(geod)):
        angles = _span_angles(killing_basis(geod), rows)
        records.append(FocalKernelRecord(t_star, mult, float(np.max(angles, initial=0.0))))
    worst = max([0.0, *(r.angle for r in records)])
    return VariationalCompletenessReport(worst < angle_tol, worst, records)


@dataclass
class EigenFieldRecord:
    eigenvalue: float
    focal_time: float            # 1/lambda
    tangency_residual: float


@dataclass
class DiScalaOlmosReport:
    xi: np.ndarray
    records: list
    worst_tangency: float


def discala_olmos_probe(rep: OrthogonalRep, point, seed: int = 0) -> DiScalaOlmosReport:
    """Eigenfield test along a normal line of a Euclidean orbit.

    For a seeded unit normal xi whose shape operator has fully nonzero
    spectrum, each eigenpair (lambda, u) gives the Jacobi field
    J(s) = (1 - lambda s) u along x + s xi, which vanishes at the focal time
    1/lambda.  For a variationally complete representation it is a Killing
    restriction: some generator A has A x = u and A xi = -lambda u.  Each
    record carries the sine of the angle of its row (u, -lambda |x| u)
    (``_initial_data``) from the span ``killing_span`` at (x, xi).
    """
    if rep.restrict_to_sphere:
        raise TransversalError("the eigenfield probe runs on the Euclidean model")
    point = np.asarray(point, float)
    tangent = linalg.orthonormalize(rep.tangent_rows(point))
    if tangent.shape[0] == 0:
        raise TransversalError("orbit is a point; no eigenfields to probe")
    rng = np.random.default_rng(seed)
    normal = linalg.kernel(tangent)
    # Keep the first unit normal whose shape spectrum is, within rounding, the most
    # nondegenerate: on a one-dimensional normal space every draw ties exactly.
    xis = rng.standard_normal((PROBE_DRAWS, normal.shape[0])) @ normal
    xis /= np.linalg.norm(xis, axis=-1, keepdims=True)
    shapes = shape_operator(rep, point, xis, tangent)
    scores = np.min(np.abs(np.linalg.eigvalsh(shapes)), axis=-1)
    best, = linalg.first_max(scores)
    if scores[best] < PROBE_MIN_EIG:
        raise TransversalError(
            f"no normal direction with fully nonzero shape spectrum after "
            f"{PROBE_DRAWS} draws (best min |eigenvalue| {scores[best]:.2e})")
    xi = xis[best]
    lam, vec = np.linalg.eigh(shapes[best])
    u = vec.T @ tangent
    span = killing_span(point, *killing_data(rep, ModelManifold("euclidean", rep.space_dim),
                                             point, xi))
    tangency = np.sin(_span_angles(span, _initial_data(point, u, -lam[:, None] * u)))
    records = [EigenFieldRecord(float(l_val), float(1.0 / l_val), float(res))
               for l_val, res in zip(lam, tangency)]
    return DiScalaOlmosReport(xi, records, float(np.max(tangency)))


# ---------------------------------------------------------------------------
# the transversal system: bundles, A-tensor, transversal Jacobi equation
# ---------------------------------------------------------------------------

class TransversalSystem:
    """Extended vertical/horizontal bundles, A_t and the Morse-Sturm operator.

    The vertical fibre is {J(t)} + {J'(t) : J vanishing at t} over the
    vertical Jacobi fields, with the division construction carrying the
    rank through isolated zeros.  Only the r vertical fields are evaluated
    over the grid, and n_t x D^2 must be within ``MAX_GRID_ENTRIES``.
    """

    def __init__(self, geod: OrbitGeodesic):
        self.geod = geod
        n_t = geod.times.shape[0]
        if n_t < 3:
            raise TransversalError("the transversal system needs at least 3 grid times")
        # the (n_t, m, m) projector and tensor stacks, checked before any is built
        _check_grid_budget(n_t, geod.point.size ** 2)
        m = geod.dim
        # vertical Jacobi fields: the span of the Killing data (A x, P_x A xi)
        # in N-Jacobi coefficients; the orbit-tangent part of P_x A xi is -S_xi A x
        values, derivs = geod.killing_data
        span = linalg.row_space_stack(np.hstack([values @ geod.orbit_tangent.T,
                                                 derivs @ geod.normal_basis.T])[None])[0]
        self.upsilon_coeffs = span[np.any(span, axis=1)]
        r = self.upsilon_coeffs.shape[0]
        self.rank = r
        self.p_v = np.zeros((n_t, m, m))
        # the orbit rank at each grid time, and the times where it drops below r
        self.orbit_rank = np.zeros(n_t, int)
        self.vanishing = np.zeros(0, int)
        self.gamma_coords = geod.frame.T @ geod.direction    # gamma' is parallel
        if r:
            # the r vertical fields alone over the grid, (n_t, r, m), in closed
            # form from their modes; one row-space call gives the rank test and
            # the vertical fibre's rows
            modes = tuple(x @ self.upsilon_coeffs.T for x in _basis_modes(geod))
            w = np.swapaxes(_closed_form(geod, *modes, geod.times), 1, 2)
            rows = linalg.row_space_stack(w, VERTICAL_RANK_RTOL)
            np.matmul(np.swapaxes(rows, 1, 2), rows, out=self.p_v)
            self.orbit_rank = np.count_nonzero(np.any(rows, axis=-1), axis=-1)
            # division construction through isolated zeros of vertical fields,
            # the times where fewer than r rows survive the rank cut
            self.vanishing = np.flatnonzero(self.orbit_rank != r)
            dws = np.swapaxes(_closed_form(geod, *modes, geod.times[self.vanishing],
                                           derivative=True), 1, 2)
            for k, dw in zip(self.vanishing, dws):
                vanish = linalg.kernel(w[k].T, 1e-6)
                basis = linalg.row_space_stack(np.vstack([w[k], vanish @ dw]))
                rank = np.count_nonzero(np.any(basis, axis=1))
                if rank != r:
                    raise TransversalError(
                        f"vertical rank {rank} != {r} at t = "
                        f"{geod.times[k]:.4f}; a vertical-field zero is not "
                        "isolated at grid resolution")
                self.p_v[k] = basis.T @ basis
            del w, rows, dws
        self.p_h = np.eye(m)[None, :, :] - self.p_v
        # extended A-tensor from centered differences of the projectors
        dp_v = np.empty_like(self.p_v)
        h = geod.step
        dp_v[1:-1] = (self.p_v[2:] - self.p_v[:-2]) / (2 * h)
        dp_v[0] = (-3 * self.p_v[0] + 4 * self.p_v[1] - self.p_v[2]) / (2 * h)
        dp_v[-1] = (3 * self.p_v[-1] - 4 * self.p_v[-2] + self.p_v[-3]) / (2 * h)
        a_raw = (self.p_h - self.p_v) @ dp_v
        del dp_v
        self.a = (a_raw - np.transpose(a_raw, (0, 2, 1))) / 2
        del a_raw
        rhat = geod.curvature
        self.r_script = self.p_h @ rhat @ self.p_h - 3 * (self.a @ self.a)
        self._cache = {}


def transversal_system(geod: OrbitGeodesic) -> TransversalSystem:
    return _cached(geod, "system", lambda: TransversalSystem(geod))


def horizontal_frame(system: TransversalSystem) -> np.ndarray:
    """A nabla^h-parallel orthonormal frame of H_t along the geodesic.

    The frame solves E' = A_t E (the extended-tensor transport equation)
    with RK4 and is projected into H_t and re-orthonormalised after each
    step; projection-only stepping would drift at first order in the step
    and mask the claim residuals this frame is used to verify.
    """
    return _cached(system, "hframe", lambda: _parallel_horizontal_frame(system))


def _parallel_horizontal_frame(system: TransversalSystem) -> np.ndarray:
    """``horizontal_frame``, uncached."""
    a = system.a
    # the midpoint tensor (a_k + a_{k+1}) / 2 is O(h^2) accurate
    steps = _rk4_steps(a[:-1], (a[:-1] + a[1:]) / 2, a[1:], system.geod.step)
    np.matmul(system.p_h[1:], steps, out=steps)      # remove numerical vertical leakage
    # eigenvalues of p_h ascend: r zeros (V_t), then m - r ones (H_t)
    start = np.linalg.eigh(system.p_h[0])[1][:, system.rank:]
    # A sign-fixed QR after every step only right-multiplies the frame by an
    # upper-triangular matrix with positive diagonal, so the Q factor of the
    # unnormalised product at each time is the stepwise re-orthonormalised
    # frame: one stacked QR replaces one QR per step.
    frame = _propagate(steps, start)
    return np.swapaxes(linalg.orthonormalize_stack(np.swapaxes(frame, 1, 2)), 1, 2)


def claim_residuals(system: TransversalSystem) -> dict:
    """Grid residuals of the two structure claims of the extended tensor.

    ``vertical-derivative``: for N-Jacobi fields made horizontal at a time
    t0 by subtracting a vertical Jacobi field, (J'(t0))^v = -A_t0 J(t0).
    ``frame-derivative``: nabla^h-parallel frame fields satisfy E' = A E
    under centered differencing.
    """
    g = system.geod
    ks = np.arange(CLAIM_STRIDE, g.times.shape[0] - CLAIM_STRIDE, CLAIM_STRIDE)
    # the basis at the strided times only, (n_k, n_f, m)
    v, dv = (np.swapaxes(_closed_form(g, *_basis_modes(g), g.times[ks], d), 1, 2)
             for d in (False, True))
    w = system.upsilon_coeffs @ v                                # (n_k, r, m)
    dw = system.upsilon_coeffs @ dv
    p_vt = np.swapaxes(system.p_v[ks], 1, 2)
    vert = v @ p_vt
    # minimum-norm least-squares alpha with alpha @ w = v^v, for every field and
    # time; one refinement step brings the product with the explicit
    # pseudo-inverse to the accuracy of a per-system least-squares solve
    pinv = np.linalg.pinv(w)
    alpha = vert @ pinv
    alpha += (vert - alpha @ w) @ pinv
    # the claim is skipped where the vertical fields lose rank, and where they
    # cannot match a field's vertical value
    matched = (np.linalg.norm(alpha @ w - vert, axis=-1) <= 1e-8) \
        & ~np.isin(ks, system.vanishing)[:, None]
    v = v - alpha @ w
    dv = dv - alpha @ dw
    resid = np.linalg.norm(dv @ p_vt + v @ np.swapaxes(system.a[ks], 1, 2), axis=-1)
    worst_v = float(np.max(resid[matched], initial=0.0))
    frame = horizontal_frame(system)
    h = g.step
    de = (frame[2:] - frame[:-2]) / (2 * h)
    model = system.a[1:-1] @ frame[1:-1]
    worst_e = float(np.max(np.abs(de - model))) if de.size else 0.0
    return {"vertical-derivative": worst_v, "frame-derivative": worst_e}


def transversal_equation_residual(system: TransversalSystem, y: np.ndarray) -> float:
    """Sup residual of the transversal Jacobi equation for fields on the grid.

    ``y`` is an (n_t, m, n) stack of n fields' horizontal frame coordinates,
    one column per field; derivatives are centered differences, so the
    residual carries an O(h^2) floor.
    """
    h = system.geod.step
    z = system.p_h[1:-1] @ ((y[2:] - y[:-2]) / (2 * h))
    ddy = system.p_h[2:-2] @ ((z[2:] - z[:-2]) / (2 * h))
    res = ddy + system.r_script[2:-2] @ y[2:-2]
    return float(np.max(np.linalg.norm(res, axis=1)))


def symplectic_form(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """omega(J_i, J_j) = <J_i', J_j> - <J_i, J_j'> for every pair of fields.

    ``y`` and ``dy`` are (n_t, m, n) stacks of n fields' frame values and
    covariant derivatives, one column per field; returns (n_t, n, n).
    """
    return np.swapaxes(dy, 1, 2) @ y - np.swapaxes(y, 1, 2) @ dy


# ---------------------------------------------------------------------------
# quotient conjugate points and the Morse-Sturm index
# ---------------------------------------------------------------------------

@dataclass
class ConjugateScanReport:
    conjugate_points: list    # (time, multiplicity)
    index: int
    sturm_consistent: bool


def conjugate_scan(system: TransversalSystem) -> ConjugateScanReport:
    """Conjugate points and Morse index of Y'' + R(t) Y = 0 on the horizontal.

    The conjugate points come from the focal data (Wilking): along a
    horizontal geodesic, t > 0 is a quotient conjugate time of multiplicity
    dim{J in Lambda : J(t) = 0} - dim{J in W : J(t) = 0}, Lambda the
    N-Jacobi space and W the Killing restrictions.  At each focal time the
    first is the focal multiplicity, and the second the number of principal
    angles below ``KILLING_ANGLE_TOL`` between ``killing_basis`` and the
    vanishing fields' initial data.  The index is the negative-eigenvalue
    count of a piecewise-linear discretisation of the index form of R in a
    nabla^h-parallel frame orthogonal to gamma', from the basepoint on;
    ``sturm_consistent`` checks it against the sum of interior conjugate
    multiplicities (Morse index theorem), two independent derivations.
    """
    g = system.geod
    conj = []
    for (t, mult), rows in zip(focal_points(g), _focal_kernels(g)):
        angles = linalg.principal_angles(killing_basis(g), linalg.orthonormalize(rows))
        excess = mult - int(np.sum(angles < KILLING_ANGLE_TOL))
        if t > 0 and excess > 0:
            conj.append((t, excess))
    frame = horizontal_frame(system)
    b, h = g.base_index, g.step
    gp0 = system.p_h[b] @ system.gamma_coords
    gp0 = gp0 / np.linalg.norm(gp0)
    base = frame[b].T          # rows: horizontal basis at the basepoint
    trans = linalg.orthonormalize(base - np.outer(base @ gp0, gp0))
    coeff0 = trans @ frame[b]  # (q, q') coordinates in the moving frame
    q_dim = trans.shape[0]
    # the index form reads R at every other grid time from the basepoint on
    idx = np.arange(b, g.times.shape[0], 2)
    times = g.times[idx]
    index = 0
    if q_dim:
        # R in the moving frame, restricted transversally
        r_red = coeff0 @ (np.swapaxes(frame[idx], 1, 2) @ (system.r_script[idx] @ frame[idx])) \
            @ coeff0.T
        index = _pl_index(r_red, times, q_dim)
    interior = sum(m for t, m in conj if t < times[-1] - 2 * h)
    return ConjugateScanReport(conj, index, index == interior)


def _pl_index(r_vals: np.ndarray, times: np.ndarray, q_dim: int) -> int:
    """Negative-eigenvalue count of the piecewise-linear index form."""
    mat = _index_form(r_vals, times, q_dim)
    if not mat.size:
        return 0
    evals = np.linalg.eigvalsh((mat + mat.T) / 2)
    scale = max(float(np.max(np.abs(evals))), 1.0)
    return int(np.sum(evals < -1e-9 * scale))


def _index_form(r_vals: np.ndarray, times: np.ndarray, q_dim: int) -> np.ndarray:
    """Matrix of the index form int |Y'|^2 - <R Y, Y> on continuous
    piecewise-linear fields with ``INDEX_ELEMENTS`` elements, vanishing at
    both ends: one (q_dim, q_dim) block per pair of interior nodes.

    The mass integrals of hat products against R are trapezoid sums over the
    grid points of each element.  Every element's points are concatenated
    (a shared node once per element), each point gets its trapezoid weight
    times the hat products, and one ``np.add.reduceat`` per integral sums
    each element; the block-tridiagonal blocks are placed by indexing.
    """
    n = times.shape[0]
    nodes = np.unique(np.linspace(0, n - 1, INDEX_ELEMENTS + 1).astype(int))
    inner = nodes.shape[0] - 2
    if inner <= 0:
        return np.zeros((0, 0))
    k0, k1 = nodes[:-1], nodes[1:]
    counts = k1 - k0 + 1
    first = np.r_[0, np.cumsum(counts)[:-1]]          # each element's first point
    elem = np.repeat(np.arange(k0.shape[0]), counts)
    points = np.arange(elem.shape[0]) - first[elem] + k0[elem]    # grid index of each
    ts = times[points]
    ell = times[k1] - times[k0]
    phi_l = (times[k1][elem] - ts) / ell[elem]
    phi_r = (ts - times[k0][elem]) / ell[elem]
    # the gap from an element's last point to the next one's first is 0
    gap = np.diff(ts)
    weight = (np.r_[gap, 0.0] + np.r_[0.0, gap]) / 2
    m_ll, m_lr, m_rr = (np.add.reduceat((weight * hat)[:, None, None] * r_vals[points], first,
                                        axis=0)
                        for hat in (phi_l ** 2, phi_l * phi_r, phi_r ** 2))
    stiff = np.eye(q_dim) / ell[:, None, None]
    mat = np.zeros((inner, q_dim, inner, q_dim))
    i = np.arange(inner)
    # node i + 1 closes element i and opens element i + 1
    mat[i, :, i, :] = (stiff[:-1] - m_rr[:-1]) + (stiff[1:] - m_ll[1:])
    off = -stiff[1:-1] - m_lr[1:-1]
    mat[i[:-1], :, i[1:], :] = off
    mat[i[1:], :, i[:-1], :] = np.swapaxes(off, 1, 2)
    return mat.reshape(inner * q_dim, inner * q_dim)


# ---------------------------------------------------------------------------
# O'Neill check and the rescaling probe
# ---------------------------------------------------------------------------

@dataclass
class ONeillReport:
    k_sigma: float
    a_norm_sq: float
    k_star_formula: float
    k_star_estimate: float
    residual: float
    starts: int               # counters of the one quotient search
    iterations: int
    evaluations: int


def _quotient_curvature(rep: OrthogonalRep, manifold: ModelManifold, points,
                        x, y, seps, config: QuotientOptimizerConfig):
    """Base curvatures of P planes (x_i, y_i) at ``points`` from one quotient search.

    ``points``, ``x`` and ``y`` are (P, d) stacks and ``seps`` holds the P
    separations.  With d the orbit-space distance between exp(s x) and
    exp(s y) for an orthonormal pair, 12 (sqrt(2) s - d) / (sqrt(2) s^3) =
    K + O(s^2); the estimates at s and s/2 are Richardson-combined to cancel
    the O(s^2) term.  All 2P distances come from one stacked
    ``quotient_distance`` call, in which each pair retires on its own, so
    each estimate is the one that a call on its own two pairs gives.
    Returns the (P,) estimates and the search.
    """
    seps = np.asarray(seps, float)[:, None] / np.array([1.0, 2.0])     # (P, 2)

    def ends(directions):
        return np.array([manifold.exp(pt, sep * u)
                         for pt, u, row in zip(points, directions, seps) for sep in row])

    found = quotient_distance(rep, ends(x), ends(y), config)
    est = 12.0 * (np.sqrt(2.0) * seps - found.value.reshape(-1, 2)) / (np.sqrt(2.0) * seps ** 3)
    return (4 * est[:, 1] - est[:, 0]) / 3, found


def _oneill_tensor(rep: OrthogonalRep, manifold: ModelManifold, point, direction) -> np.ndarray:
    """O'Neill's A_xi at ``point``, xi = ``direction``, as an ambient (D, D)
    skew matrix: A = X - X^T, X = p_h W^'^T W^ from one SVD of the Killing
    values W (see the module docstring).  It is the grid tensor
    ``TransversalSystem.a`` at time 0 without its O(h^2) finite-difference
    error.

    The formula needs the geodesic to keep the orbit type of ``point``: every
    generator that kills x (a left null row of W) must kill P_x A xi too.
    Where the isotropy of x moves xi, ``TransversalError`` is raised.
    """
    rows, drows = killing_data(rep, manifold, point, direction)
    rank, left, right = linalg.svd_bases(rows)
    if np.linalg.norm(left[rank:] @ drows) > 1e-8 * np.linalg.norm(drows):
        raise TransversalError("the isotropy of the basepoint moves the direction, so the "
                               "geodesic leaves its orbit type and the O'Neill formula "
                               "does not hold there")
    w = right[:rank]
    dw = (left[:rank] @ drows) / np.linalg.norm(left[:rank] @ rows, axis=1)[:, None]
    x_mat = (dw - (dw @ w.T) @ w).T @ w
    return x_mat - x_mat.T


def oneill_check(rep: OrthogonalRep, manifold: ModelManifold, point, x, y,
                 step: float = 2.5e-4,
                 qconfig: QuotientOptimizerConfig | None = None) -> ONeillReport:
    """Compare K(sigma*) = K(sigma) + 3|A_X Y|^2 against a quotient estimate.

    The A-tensor path takes A at the basepoint in closed form from the
    Killing initial data (``_oneill_tensor``): the vertical projector p_v
    has the exact derivative dp_v = N + N^T along the geodesic, with
    N = p_h W^'^T W^ (the matrix X of the module docstring), and
    A = skew((p_h - p_v) dp_v).  No grid is built, so ``step`` no longer
    changes the result; it stays a keyword for the callers that pass it.
    The quotient path estimates the base curvature from orbit-space
    distances between points pushed out along X and Y,
    Richardson-extrapolated over two separations, in one quotient search of
    two pairs whose counters the report carries.  The point must be a
    finite point of the model; X and Y finite unit vectors tangent to the
    model and normal to the orbit, and Y orthogonal to X.
    """
    point = np.asarray(point, float)
    if not (np.all(np.isfinite(point)) and np.all(np.isfinite(np.asarray(x, float)))):
        raise TransversalError("the basepoint and direction must be finite")
    manifold.validate_point(point)
    rows = rep.tangent_rows(point)
    x = _check_normal(manifold, point, rows, x, "direction")
    y = _check_normal(manifold, point, rows, y, "y")
    if abs(float(x @ y)) > 1e-9:
        raise TransversalError("y must be orthogonal to x")
    k_sigma = float(np.dot(manifold.curvature(point, x, y, y), x))
    a_xy = _oneill_tensor(rep, manifold, point, x) @ y
    a_sq = float(np.dot(a_xy, a_xy))
    k_formula = k_sigma + 3 * a_sq
    cfg = qconfig or QuotientOptimizerConfig(restarts=4, evals=1500, probes=100)
    (k_est,), found = _quotient_curvature(rep, manifold, point[None], x[None], y[None],
                                          [ONEILL_SEPARATION], cfg)
    return ONeillReport(k_sigma, a_sq, k_formula, float(k_est), float(abs(k_est - k_formula)),
                        found.starts, found.iterations, found.evaluations)


@dataclass
class RescaleReport:
    lambdas: tuple
    values: tuple             # lambda^2 * curvature estimate at h_lambda(q)
    curvature_estimates: tuple
    flat_prediction: bool
    consistent: bool
    starts: int               # counters of the one quotient search
    iterations: int
    evaluations: int


def rescale_probe(rep: OrthogonalRep, point, q, lambdas=(0.125, 0.0625, 0.03125, 0.015625),
                  seed: int = 0) -> RescaleReport:
    """Blow-up probe at a singular point of a sphere action.

    Points q are pulled toward the singular point along the geodesic from
    ``point`` through ``q`` by homothety factors lambda; the report carries
    lambda^2 times the quotient-curvature estimate there, which tends to
    zero exactly when the slice representation is polar (orbifold point).
    The estimate at each lambda is the largest over its horizontal planes:
    the one plane of a two-dimensional horizontal space, else three seeded
    ones.  Every plane of every lambda goes to one quotient search, whose
    counters the report carries.  ``point`` and ``q`` must be finite unit
    vectors of R^space_dim with q != +-point, and ``lambdas`` a non-empty
    sequence in (0, 1]; anything else raises ``TransversalError``.
    """
    if not rep.restrict_to_sphere:
        raise TransversalError("the rescale probe runs on a sphere action")
    point = _unit_vector(point, rep.space_dim, "point")
    q = _unit_vector(q, rep.space_dim, "q")
    lams = np.asarray(lambdas, float)
    if lams.ndim != 1 or not lams.size or not np.all((lams > 0) & (lams <= 1)):
        raise TransversalError("lambdas must be a non-empty sequence of values in (0, 1]")
    if np.linalg.norm(q + point) < 1e-10:
        raise TransversalError("q must not be the antipode of the base point")
    manifold = ModelManifold("sphere", rep.space_dim)
    v = manifold.log(point, q)
    rho = np.linalg.norm(v)
    if rho < 1e-10:
        raise TransversalError("q must differ from the base point")
    prediction = orbifold_point_test(rep, point, seed).ok
    xs = np.array([manifold.exp(point, lam * v) for lam in lambdas])
    rank, _, right = linalg.svd_bases(np.concatenate([rep.tangent_rows(xs), xs[:, None]], 1))
    rng = np.random.default_rng(seed)
    planes, first = [], []
    for x, r, basis, lam in zip(xs, rank, right, lambdas):
        hor = basis[r:]
        if hor.shape[0] < 2:
            raise TransversalError("quotient is lower than two-dimensional; no "
                                   "curvature plane to estimate")
        first.append(len(planes))
        if hor.shape[0] == 2:
            drawn = [hor]
        else:
            drawn = [linalg.orthonormalize(rng.standard_normal((2, hor.shape[0]))) @ hor
                     for _ in range(3)]
        planes += [(x, bx, by, RESCALE_ETA * lam * rho) for bx, by in drawn]
    points, bx, by, seps = (np.array(col) for col in zip(*planes))
    cfg = QuotientOptimizerConfig(restarts=4, evals=2500, probes=200, seed=seed)
    est, found = _quotient_curvature(rep, manifold, points, bx, by, seps, cfg)
    best = np.maximum.reduceat(est, first)
    values = tuple(float(lam ** 2 * b) for lam, b in zip(lambdas, best))
    consistent = (not prediction) or (abs(values[-1]) < 1e-2)
    return RescaleReport(tuple(lambdas), values, tuple(float(b) for b in best),
                         prediction, consistent, found.starts, found.iterations,
                         found.evaluations)
