"""Fields along horizontal geodesics of isometric actions on model manifolds.

Everything runs on a fixed-step grid in a parallel orthonormal frame along
the geodesic; in that frame the ambient curvature operator R(., gamma')gamma'
is a constant matrix for every supported model, so Jacobi fields have a
closed-form eigenmode solution with an RK4 fallback for cross-checks.  On
top of the Jacobi layer sit the focal-point scan, the extended vertical and
horizontal bundles V_t / H_t through singular times, the extended skew
tensor A_t, the transversal Jacobi equation, the symplectic pairing, and a
Morse-Sturm conjugate/index scan.

Work on the grid is stacked.  The N-Jacobi basis is held once, as arrays:
its initial data as two (dim M, D) arrays, its fields on the grid as two
(n_fields, n_t, m) arrays from one closed-form evaluator, which also gives
the matrix solution at any times for the focal scan's stacked SVD.  One
stacked SVD of the vertical fields (``linalg.row_space_stack``) gives both
the rank test and the rows of the vertical fibre; the bundles are kept as
projectors p_v and p_h, and only the start of the horizontal frame needs a
basis of H_t.  The vertical-derivative claim is one stacked least-squares
solve over every strided time and field, skipping the times where the
vertical fields lose rank.  Every RK4 integration (the
Jacobi cross-check, the horizontal frame, the transversal Jacobi equation
and the Morse-Sturm scan) goes through one helper, ``_rk4_steps``, that
returns each step's propagator of the linear system, so the remaining
sequential loop is one small matmul per step.  The O'Neill check and the
rescale probe share one quotient-curvature estimator.  Tolerances, grid
strides and draw counts are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .polarity import OrthogonalRep, orbifold_point_test
from .symspace import ModelManifold
from .weyl import QuotientOptimizerConfig, quotient_distance

DEFAULT_STEP = 1e-3
MAX_STEP = 1e-2
FOCAL_SV_TOL = 1e-7         # singular values below it mark focal/conjugate times
GOLDEN_ITERS = 90
VERTICAL_RANK_RTOL = 1e-8   # relative rank cut of the vertical Jacobi fields
CLAIM_STRIDE = 50           # grid stride of the vertical-derivative claim check
INDEX_ELEMENTS = 64         # elements of the piecewise-linear Morse-Sturm index form
PROBE_DRAWS = 64            # normal directions drawn by the eigenfield probe
PROBE_MIN_EIG = 1e-6        # least |shape-operator eigenvalue| the probe accepts
ONEILL_SEPARATION = 0.08    # larger separation of the O'Neill quotient estimate
RESCALE_ETA = 0.3           # rescale-probe separation / distance to the singular point
# Times per stacked call in the eigenfield scan of discala_olmos_probe.
_PROBE_BLOCK = 4096


class TransversalError(ValueError):
    pass


class OrbitGeodesic:
    """A horizontal geodesic with its grid, parallel frames and shape data.

    ``direction`` must be a unit normal to the orbit at ``point`` (tangent
    to the model).  The sign convention of the shape operator is fixed by
    the position normal on a Euclidean orbit: S_(p/|p|) = -(1/|p|) id.
    """

    def __init__(self, rep: OrthogonalRep, manifold: ModelManifold,
                 point, direction, span=(0.0, float(np.pi)),
                 step: float = DEFAULT_STEP):
        if not (np.isfinite(step) and step > 0):
            raise TransversalError(f"step size rejected (h = {step:g} must be positive and finite)")
        if step > MAX_STEP:
            raise TransversalError(f"step size rejected (h = {step:g} > {MAX_STEP:g})")
        point = np.asarray(point, float)
        direction = np.asarray(direction, float)
        manifold.validate_point(point)
        if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
            raise TransversalError("direction must be a unit vector")
        if np.linalg.norm(direction - manifold.project_tangent(point, direction)) > 1e-9:
            raise TransversalError("direction must be tangent to the model")
        rows = rep.tangent_rows(point)
        if rows.size and float(np.max(np.abs(rows @ direction))) > 1e-10:
            raise TransversalError("direction must be normal to the orbit")
        self.rep = rep
        self.manifold = manifold
        self.point = point
        self.direction = direction
        self.step = float(step)
        if not (span[0] <= 0.0 <= span[1]):
            raise TransversalError("the grid span must contain the basepoint time 0")
        n = int(round((span[1] - span[0]) / step)) + 1
        self.times = span[0] + step * np.arange(n)
        self.base_index = int(round(-span[0] / step))
        if abs(self.times[self.base_index]) > 1e-12:
            raise TransversalError("span start must be an integer number of steps")
        self.gamma, self.dgamma = manifold.geodesic(point, direction, self.times)
        self.frames, self.curvature = manifold.parallel_frames(point, direction, self.times)
        self.dim = self.frames.shape[2]
        evals, evecs = np.linalg.eigh(self.curvature)
        if float(np.min(evals)) < -1e-10:
            raise TransversalError("model curvature operator must be positive semidefinite")
        self._modes = (np.clip(evals, 0.0, None), evecs)
        self.orbit_tangent = linalg.orthonormalize(rows)
        base = self.frames[self.base_index]
        self.normal_basis = linalg.kernel(self.orbit_tangent @ base) @ base.T
        self.shape_operator, self.shape_asymmetry = shape_operator(
            rep, point, direction, self.orbit_tangent)
        self._cache = {}

    # -- frame bookkeeping ---------------------------------------------------

    def to_frame(self, k: int, ambient_vec: np.ndarray) -> np.ndarray:
        return self.frames[k].T @ ambient_vec

    def orbit_rank_profile(self) -> np.ndarray:
        key = "rank_profile"
        if key not in self._cache:
            self._cache[key] = linalg.svd_rank(self.rep.tangent_rows(self.gamma))
        return self._cache[key]


def shape_operator(rep: OrthogonalRep, point, direction,
                   orbit_basis: np.ndarray | None = None):
    """Orbit shape operator S_xi on an orthonormal orbit-tangent basis.

    Entries are <grad_{u_a} X_b^*, xi> for Killing fields realising the basis;
    the matrix is symmetrised and the asymmetry residual returned with it.
    S_xi is linear in xi, so an (..., D) stack of directions gives an
    (..., k, k) stack of matrices and an (...) stack of residuals from one
    contraction.
    """
    rows = rep.tangent_rows(np.asarray(point, float))
    basis = orbit_basis if orbit_basis is not None else linalg.orthonormalize(rows)
    # kill[b, :, a] = X_b u_a, X_b the Killing field realising basis[b]
    kill = np.tensordot(basis @ np.linalg.pinv(rows.T).T, rep.generators, 1) @ basis.T
    s = np.einsum("...x,bxa->...ab", np.asarray(direction, float), kill)
    st = np.swapaxes(s, -1, -2)
    return (s + st) / 2, np.max(np.abs(s - st), axis=(-2, -1), initial=0.0)


@dataclass
class GridField:
    """A field along the geodesic: frame coordinates and covariant derivative."""

    geod: OrbitGeodesic
    y: np.ndarray        # (n_t, m)
    dy: np.ndarray       # (n_t, m)

    def ambient(self) -> np.ndarray:
        return np.einsum("tdm,tm->td", self.geod.frames, self.y)


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
                 times: np.ndarray):
    """Closed-form Jacobi fields at an array of times.

    Columns of ``a`` and ``b`` (shape (m, n)) are the initial values and
    covariant derivatives at the basepoint time 0, in the eigenbasis of the
    curvature matrix.  Returns the frame values and derivatives of every
    column at every time, each of shape (n_times, m, n).
    """
    evals, q = geod._modes
    curved = evals > 1e-12
    r = np.sqrt(np.where(curved, evals, 1.0))
    times = np.asarray(times, float)
    rt = np.multiply.outer(times, r)
    cos = np.where(curved, np.cos(rt), 1.0)
    sin = np.sin(rt)
    val_b = np.where(curved, sin / r, times[:, None])
    der_a = np.where(curved, -r * sin, 0.0)
    y = q @ (cos[:, :, None] * a + val_b[:, :, None] * b)
    dy = q @ (der_a[:, :, None] * a + cos[:, :, None] * b)
    return y, dy


def jacobi_integrate(geod: OrbitGeodesic, j0, dj0, method: str = "closed-form") -> GridField:
    """Solve the Jacobi equation along the geodesic from ambient initial data.

    Initial data lives at the basepoint gamma(0).  ``closed-form`` uses the
    constant-curvature eigenmode solution; ``rk4`` integrates the same
    equation with classical RK4 at the grid step so the two paths
    cross-check each other.
    """
    y0 = geod.to_frame(geod.base_index, np.asarray(j0, float))
    z0 = geod.to_frame(geod.base_index, np.asarray(dj0, float))
    if method == "closed-form":
        q = geod._modes[1]
        y, dy = _closed_form(geod, (q.T @ y0)[:, None], (q.T @ z0)[:, None], geod.times)
        return GridField(geod, y[:, :, 0], dy[:, :, 0])
    if method != "rk4":
        raise TransversalError(f"unknown method {method!r}")
    if geod.base_index != 0:
        raise TransversalError("rk4 integration needs the grid to start at the basepoint")
    m = geod.dim
    gen = _pair_generator(-geod.curvature[None])
    step = _rk4_steps(gen, gen, gen, geod.step)
    states = _propagate(np.broadcast_to(step, (geod.times.shape[0] - 1, 2 * m, 2 * m)),
                        np.concatenate([y0, z0]))
    return GridField(geod, states[:, :m], states[:, m:])


def _pair_generator(force: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
    """Stack of generators [[A, I], [F, A]] of y' = z + A y, z' = F y + A z.

    ``force`` (and ``a``, zero when omitted) are (n, d, d) stacks; the state
    is the pair (y, z) stacked into one vector or matrix of 2d rows.
    """
    n, d, _ = force.shape
    out = np.zeros((n, 2 * d, 2 * d))
    out[:, :d, d:] = np.eye(d)
    out[:, d:, :d] = force
    if a is not None:
        out[:, :d, :d] = a
        out[:, d:, d:] = a
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
    """States x_0 = start, x_{i+1} = steps[i] @ x_i, stacked along axis 0."""
    out = np.empty((steps.shape[0] + 1,) + start.shape)
    out[0] = start
    for i, p in enumerate(steps):
        np.matmul(p, out[i], out=out[i + 1])
    return out


def _basis_modes(geod: OrbitGeodesic):
    """Mode coefficients (a, b), each (m, dim M), of the N-Jacobi basis."""
    key = "basis_modes"
    if key not in geod._cache:
        j0, dj0 = n_jacobi_space(geod)
        to_modes = geod.frames[geod.base_index] @ geod._modes[1]
        geod._cache[key] = ((j0 @ to_modes).T, (dj0 @ to_modes).T)
    return geod._cache[key]


def _matrix_solution(geod: OrbitGeodesic, times) -> np.ndarray:
    """(n_times, m, m) stack whose columns are the N-Jacobi basis fields."""
    return _closed_form(geod, *_basis_modes(geod), np.atleast_1d(times))[0]


def lambda_fields(geod: OrbitGeodesic):
    """The N-Jacobi basis solved on the grid (closed form).

    Returns ``(y, dy)``, the frame values and covariant derivatives of every
    basis field, each of shape (n_fields, n_t, m) in the row order of
    ``n_jacobi_space``.
    """
    key = "lambda_fields"
    if key not in geod._cache:
        y, dy = _closed_form(geod, *_basis_modes(geod), geod.times)
        geod._cache[key] = (np.ascontiguousarray(np.moveaxis(y, 2, 0)),
                            np.ascontiguousarray(np.moveaxis(dy, 2, 0)))
    return geod._cache[key]


def _min_singular(geod: OrbitGeodesic, t: float) -> float:
    return float(np.linalg.svd(_matrix_solution(geod, t)[0], compute_uv=False)[-1])


def focal_points(geod: OrbitGeodesic) -> list:
    """Focal times of the start orbit: roots of the matrix-solution sigma_min.

    Interior local minima of the smallest singular value on the grid are
    refined by golden-section search; a refined minimum below
    ``FOCAL_SV_TOL`` counts as a focal time with multiplicity the number of
    singular values below the threshold there.
    """
    times = geod.times
    smin = np.linalg.svd(_matrix_solution(geod, times), compute_uv=False)[:, -1]
    out = []
    for k in range(1, times.shape[0] - 1):
        if smin[k] <= smin[k - 1] and smin[k] <= smin[k + 1]:
            t_star = _golden_min(lambda t: _min_singular(geod, t),
                                 times[k - 1], times[k + 1])
            s_at = np.linalg.svd(_matrix_solution(geod, t_star)[0], compute_uv=False)
            if s_at[-1] < FOCAL_SV_TOL:
                mult = int(np.sum(s_at < FOCAL_SV_TOL))
                if not out or abs(out[-1][0] - t_star) > 10 * geod.step:
                    out.append((float(t_star), mult))
    return out


def _golden_min(f, a: float, b: float) -> float:
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        if b - a < 1e-14:
            break
    return (a + b) / 2


@dataclass
class KillingFields:
    """Killing-generator restrictions along the geodesic, as grid functions."""

    raw: np.ndarray      # (n_gen, n_t, m) frame coordinates
    basis: np.ndarray    # (r, n_t * m) orthonormal rows spanning them


def killing_restrictions(geod: OrbitGeodesic) -> KillingFields:
    key = "killing"
    if key not in geod._cache:
        raw = np.einsum("tid,tdm->itm", geod.rep.tangent_rows(geod.gamma), geod.frames)
        flat = raw.reshape(raw.shape[0], raw.shape[1] * raw.shape[2])
        geod._cache[key] = KillingFields(raw, linalg.orthonormalize(flat))
    return geod._cache[key]


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


def variational_completeness_probe(geod: OrbitGeodesic,
                                   angle_tol: float = 1e-6) -> VariationalCompletenessReport:
    """Check that every vanishing N-Jacobi field is a Killing restriction.

    At each focal time the kernel of the matrix solution is compared, as a
    space of grid functions, against the span of the Killing restrictions;
    the report carries the worst principal angle.
    """
    focal = focal_points(geod)
    killing = killing_restrictions(geod)
    a, b = _basis_modes(geod)
    records = []
    worst = 0.0
    for t_star, mult in focal:
        _, svals, vh = np.linalg.svd(_matrix_solution(geod, t_star)[0])
        combos = vh[svals < FOCAL_SV_TOL].T
        fields = _closed_form(geod, a @ combos, b @ combos, geod.times)[0]
        angle = 0.0
        for c in range(combos.shape[1]):
            flat = fields[:, :, c].reshape(-1)
            norm = np.linalg.norm(flat)
            if norm < 1e-14:
                continue
            if killing.basis.shape[0] == 0:
                angle = np.pi / 2
                continue
            res = linalg.span_residual(killing.basis, flat / norm)
            angle = max(angle, float(np.arcsin(np.clip(res, 0.0, 1.0))))
        worst = max(worst, angle)
        records.append(FocalKernelRecord(t_star, mult, angle))
    return VariationalCompletenessReport(worst < angle_tol, worst, records)


@dataclass
class EigenFieldRecord:
    eigenvalue: float
    focal_time: float            # 1/lambda, inf for lambda ~ 0
    tangency_residual: float


@dataclass
class DiScalaOlmosReport:
    xi: np.ndarray
    records: list
    worst_tangency: float
    second_time: float
    subspace_angle: float


def discala_olmos_probe(rep: OrthogonalRep, point, seed: int = 0,
                        step: float = DEFAULT_STEP) -> DiScalaOlmosReport:
    """Eigenfield tangency test along a normal line of a Euclidean orbit.

    For a normal direction whose shape operator has fully nonzero spectrum,
    each eigenpair (lambda, u) yields the field J(s) = (1 - lambda s) u; for
    variationally complete representations these stay tangent to the orbits
    they cross, and the orbit tangent spaces at two regular times agree.
    """
    if rep.restrict_to_sphere:
        raise TransversalError("the eigenfield probe runs on the Euclidean model")
    point = np.asarray(point, float)
    rows = rep.tangent_rows(point)
    tangent = linalg.orthonormalize(rows)
    if tangent.shape[0] == 0:
        raise TransversalError("orbit is a point; no eigenfields to probe")
    rng = np.random.default_rng(seed)
    normal = linalg.kernel(tangent)
    # Keep the first unit normal whose shape spectrum is, within rounding, the most
    # nondegenerate: on a one-dimensional normal space every draw ties exactly.
    xis = rng.standard_normal((PROBE_DRAWS, normal.shape[0])) @ normal
    xis /= np.linalg.norm(xis, axis=-1, keepdims=True)
    shapes, _ = shape_operator(rep, point, xis, tangent)
    scores = np.min(np.abs(np.linalg.eigvalsh(shapes)), axis=-1)
    best, = linalg.first_max(scores)
    if scores[best] < PROBE_MIN_EIG:
        raise TransversalError(
            f"no normal direction with fully nonzero shape spectrum after "
            f"{PROBE_DRAWS} draws (best min |eigenvalue| {scores[best]:.2e})")
    xi = xis[best]
    lam, vec = np.linalg.eigh(shapes[best])
    eigvecs = vec.T @ tangent
    n_s = int(np.ceil(1.4 * float(np.max(1.0 / np.abs(lam))) / step))
    base_rank = linalg.svd_rank(rows)
    # J(s) = (1 - lambda s) u is parallel to the unit u: its distance from the
    # orbit tangent space is |u - proj u| wherever |J(s)| >= 0.05.  The times
    # s = i * step are scanned in fixed-size blocks, so memory stays bounded
    # however small the spectrum makes the step count.
    tangency = np.zeros(lam.shape[0])
    for lo in range(0, n_s, _PROBE_BLOCK):
        times = np.arange(lo, min(lo + _PROBE_BLOCK, n_s)) * step
        span = linalg.row_space_stack(rep.tangent_rows(point + np.multiply.outer(times, xi)))
        coef = eigvecs @ np.swapaxes(span, 1, 2)                 # (block, k, r)
        dist = np.linalg.norm(eigvecs - coef @ span, axis=-1)
        far = np.abs(1.0 - np.multiply.outer(times, lam)) >= 0.05
        tangency = np.maximum(tangency, np.max(np.where(far, dist, 0.0), axis=0))
    records = []
    worst = 0.0
    for l_val, res in zip(lam, tangency):
        records.append(EigenFieldRecord(float(l_val),
                                        float(1.0 / l_val) if abs(l_val) > 1e-12 else np.inf,
                                        float(res)))
        worst = max(worst, res)
    # tangent-space agreement at a second regular, non-focal time
    s1 = 0.45 * float(np.min(1.0 / np.abs(lam)))
    while linalg.svd_rank(rep.tangent_rows(point + s1 * xi)) != base_rank:
        s1 *= 0.7
    other = linalg.orthonormalize(rep.tangent_rows(point + s1 * xi))
    ang = linalg.principal_angles(tangent, other)
    angle = float(np.max(ang)) if ang.size else 0.0
    return DiScalaOlmosReport(xi, records, worst, s1, angle)


# ---------------------------------------------------------------------------
# the transversal system: bundles, A-tensor, transversal Jacobi equation
# ---------------------------------------------------------------------------

class TransversalSystem:
    """Extended vertical/horizontal bundles, A_t and the Morse-Sturm operator.

    The vertical fibre is {J(t)} + {J'(t) : J vanishing at t} over the
    vertical Jacobi fields, with the division construction carrying the
    rank through isolated zeros.
    """

    def __init__(self, geod: OrbitGeodesic):
        self.geod = geod
        n_t = geod.times.shape[0]
        m = geod.dim
        vals, dvals = lambda_fields(geod)           # (n_fields, n_t, m) each
        self.lambda_values = vals
        self.lambda_derivs = dvals
        # vertical Jacobi fields: combinations tangent to orbits at all times,
        # the null space of q = sum_k n_k n_k^T over the orbit-normal parts
        # n_k = v_k (I - P_k) of the field values; forming q from the normal
        # parts, not as sum v v^T - sum (v P)(v P)^T, avoids a cancellation
        # that leaves null eigenvalues of order 1e-16 * sum |v|^2
        span = linalg.row_space_stack(geod.rep.tangent_rows(geod.gamma) @ geod.frames)
        normal = np.swapaxes(vals, 0, 1)
        normal = normal - (normal @ np.swapaxes(span, 1, 2)) @ span    # (n_t, n_f, m)
        q = np.einsum("tfm,tgm->fg", normal, normal)
        del span, normal
        evals, evecs = np.linalg.eigh(q)
        scale = max(float(evals[-1]), 1.0)
        self.upsilon_coeffs = evecs[:, evals < 1e-10 * scale].T
        r = self.upsilon_coeffs.shape[0]
        self.rank = r
        self.p_v = np.zeros((n_t, m, m))
        # grid indices where the vertical fields lose rank
        self.vanishing = np.zeros(0, int)
        if r:
            # one SVD gives the rank test and the rows of the vertical fibre
            w = np.einsum("rf,ftm->trm", self.upsilon_coeffs, vals)
            rows = linalg.row_space_stack(w, VERTICAL_RANK_RTOL)
            np.matmul(np.swapaxes(rows, 1, 2), rows, out=self.p_v)
            # division construction through isolated zeros of vertical fields,
            # the times where fewer than r rows survive the rank cut
            self.vanishing = np.flatnonzero(np.count_nonzero(np.any(rows, axis=-1), axis=-1) != r)
            for k in self.vanishing:
                vanish = linalg.kernel(w[k].T, 1e-6)
                dw = vanish @ (self.upsilon_coeffs @ dvals[:, k, :])
                basis = linalg.orthonormalize(np.vstack([w[k], dw]))
                if basis.shape[0] != r:
                    raise TransversalError(
                        f"vertical rank {basis.shape[0]} != {r} at t = "
                        f"{geod.times[k]:.4f}; a vertical-field zero is not "
                        "isolated at grid resolution")
                self.p_v[k] = basis.T @ basis
            del w, rows
        self.p_h = np.eye(m)[None, :, :] - self.p_v
        # extended A-tensor from centered differences of the projectors
        dp_v = np.empty_like(self.p_v)
        h = geod.step
        dp_v[1:-1] = (self.p_v[2:] - self.p_v[:-2]) / (2 * h)
        dp_v[0] = (-3 * self.p_v[0] + 4 * self.p_v[1] - self.p_v[2]) / (2 * h)
        dp_v[-1] = (3 * self.p_v[-1] - 4 * self.p_v[-2] + self.p_v[-3]) / (2 * h)
        a_raw = (self.p_h - self.p_v) @ dp_v
        self.a_asymmetry = float(np.max(np.abs(a_raw + np.transpose(a_raw, (0, 2, 1))))) / 2 \
            if n_t else 0.0
        self.a = (a_raw - np.transpose(a_raw, (0, 2, 1))) / 2
        rhat = geod.curvature
        self.r_script = self.p_h @ rhat @ self.p_h - 3 * (self.a @ self.a)
        self._cache = {}

    # -- lookups --------------------------------------------------------------

    def index_at(self, t: float) -> int:
        g = self.geod
        k = int(round((t - g.times[0]) / g.step))
        return min(max(k, 0), g.times.shape[0] - 1)

    def gamma_coords(self, k: int) -> np.ndarray:
        return self.geod.to_frame(k, self.geod.dgamma[k])


def transversal_system(geod: OrbitGeodesic) -> TransversalSystem:
    key = "system"
    if key not in geod._cache:
        geod._cache[key] = TransversalSystem(geod)
    return geod._cache[key]


def horizontal_frame(system: TransversalSystem) -> np.ndarray:
    """A nabla^h-parallel orthonormal frame of H_t along the geodesic.

    The frame solves E' = A_t E (the extended-tensor transport equation)
    with RK4 and is projected into H_t and re-orthonormalised after each
    step; projection-only stepping would drift at first order in the step
    and mask the claim residuals this frame is used to verify.
    """
    key = "hframe"
    if key in system._cache:
        return system._cache[key]
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
    frame = np.swapaxes(linalg.orthonormalize_stack(np.swapaxes(frame, 1, 2)), 1, 2)
    system._cache[key] = frame
    return frame


def claim_residuals(system: TransversalSystem) -> dict:
    """Grid residuals of the two structure claims of the extended tensor.

    ``vertical-derivative``: for N-Jacobi fields made horizontal at a time
    t0 by subtracting a vertical Jacobi field, (J'(t0))^v = -A_t0 J(t0).
    ``frame-derivative``: nabla^h-parallel frame fields satisfy E' = A E
    under centered differencing.
    """
    g = system.geod
    ks = np.arange(CLAIM_STRIDE, g.times.shape[0] - CLAIM_STRIDE, CLAIM_STRIDE)
    v = np.swapaxes(system.lambda_values[:, ks], 0, 1)          # (n_k, n_f, m)
    dv = np.swapaxes(system.lambda_derivs[:, ks], 0, 1)
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
    model = np.einsum("tmi,tin->tmn", system.a[1:-1], frame[1:-1])
    worst_e = float(np.max(np.abs(de - model))) if de.size else 0.0
    return {"vertical-derivative": worst_v, "frame-derivative": worst_e}


@dataclass
class HorizontalField:
    """Solution of the transversal Jacobi equation on the even subgrid."""

    system: TransversalSystem
    indices: np.ndarray   # grid indices (even stride)
    y: np.ndarray         # (n, m) horizontal frame coordinates
    z: np.ndarray         # (n, m) nabla^h derivative

    @property
    def times(self) -> np.ndarray:
        return self.system.geod.times[self.indices]


def transversal_integrate(system: TransversalSystem, y0, z0) -> HorizontalField:
    """Integrate (nabla^h)^2 Y + (R(Y,gamma')gamma')^h - 3 A_t^2 Y = 0.

    State (Y, Z = nabla^h Y) in frame coordinates; the plain derivatives are
    Y' = Z + A Y and Z' = F(Y) + A Z, integrated with RK4 at double step so
    every stage sits on a grid node.
    """
    g = system.geod
    y0 = np.asarray(y0, float)
    z0 = np.asarray(z0, float)
    if np.linalg.norm(system.p_v[0] @ y0) > 1e-8 * max(1.0, np.linalg.norm(y0)):
        raise TransversalError("initial value must be horizontal")
    m = g.dim

    def gen(ks):
        a = system.a[ks]
        return _pair_generator(3 * a @ a - system.p_h[ks] @ g.curvature, a)

    idx = np.arange(0, g.times.shape[0], 2)
    steps = _rk4_steps(gen(idx[:-1]), gen(idx[:-1] + 1), gen(idx[1:]), 2 * g.step)
    states = _propagate(steps, np.concatenate([y0, z0]))
    return HorizontalField(system, idx, states[:, :m], states[:, m:])


def transversal_equation_residual(system: TransversalSystem, y: np.ndarray) -> float:
    """Sup residual of the transversal Jacobi equation for a field on the grid.

    ``y`` holds horizontal frame coordinates per grid point; derivatives are
    centered differences, so the residual carries an O(h^2) floor.
    """
    g = system.geod
    h = g.step
    dy = np.empty_like(y)
    dy[1:-1] = (y[2:] - y[:-2]) / (2 * h)
    dy[0] = dy[1]
    dy[-1] = dy[-2]
    z = np.einsum("tmn,tn->tm", system.p_h, dy)
    dz = np.empty_like(z)
    dz[2:-2] = (z[3:-1] - z[1:-3]) / (2 * h)
    ddy = np.einsum("tmn,tn->tm", system.p_h, dz)
    rhs = np.einsum("tmn,tn->tm", system.r_script, y)
    res = ddy[2:-2] + rhs[2:-2]
    return float(np.max(np.linalg.norm(res, axis=1)))


def symplectic_form(f1: GridField, f2: GridField) -> np.ndarray:
    """omega(J1, J2) = <J1', J2> - <J1, J2'> at every grid index."""
    return np.einsum("tm,tm->t", f1.dy, f2.y) - np.einsum("tm,tm->t", f1.y, f2.dy)


# ---------------------------------------------------------------------------
# Morse-Sturm scan
# ---------------------------------------------------------------------------

@dataclass
class ConjugateScanReport:
    conjugate_points: list    # (time, multiplicity)
    index: int
    sturm_consistent: bool


def conjugate_scan(system: TransversalSystem) -> ConjugateScanReport:
    """Conjugate points and Morse index of Y'' + R(t) Y = 0 on the horizontal.

    The matrix solution with Y(a) = 0, Y'(a) = I runs in a nabla^h-parallel
    frame orthogonal to gamma'; the index of the associated form is the
    negative-eigenvalue count of a piecewise-linear discretisation, checked
    against the sum of interior conjugate multiplicities.
    """
    g = system.geod
    frame = horizontal_frame(system)
    gp0 = system.p_h[0] @ system.gamma_coords(0)
    gp0 = gp0 / np.linalg.norm(gp0)
    base = frame[0].T          # rows: horizontal basis at t0
    trans = linalg.orthonormalize(base - np.outer(base @ gp0, gp0))
    coeff0 = trans @ frame[0]  # (q, q') coordinates in the moving frame
    q_dim = trans.shape[0]
    if q_dim == 0:
        return ConjugateScanReport([], 0, True)
    n_t = g.times.shape[0]
    # R in the moving frame, restricted transversally
    r_frame = np.einsum("tmq,tmn,tnp->tqp", frame, system.r_script, frame)
    r_red = np.einsum("iq,tqp,jp->tij", coeff0, r_frame, coeff0)
    h = g.step
    idx = np.arange(0, n_t, 2)
    steps = _rk4_steps(_pair_generator(-r_red[idx[:-1]]), _pair_generator(-r_red[idx[:-1] + 1]),
                       _pair_generator(-r_red[idx[1:]]), 2 * h)
    start = np.vstack([np.zeros((q_dim, q_dim)), np.eye(q_dim)])
    sol = _propagate(steps, start)[:, :q_dim]
    times = g.times[idx]
    conj = _matrix_roots(sol, times)
    index = _pl_index(r_red[idx], times, q_dim)
    interior = sum(m for t, m in conj if t < times[-1] - 2 * h)
    return ConjugateScanReport(conj, index, index == interior)


def _matrix_roots(sol: np.ndarray, times: np.ndarray) -> list:
    dets = np.linalg.det(sol)
    svals = np.linalg.svd(sol, compute_uv=False)
    smin = svals[:, -1]
    n = times.shape[0]
    out = []
    for k in range(2, n - 1):
        root = None
        if dets[k] == 0.0 or (dets[k] * dets[k + 1] < 0):
            t0, t1 = times[k], times[k + 1]
            d0, d1 = dets[k], dets[k + 1]
            root = t0 if d0 == 0 else t0 - d0 * (t1 - t0) / (d1 - d0)
        elif smin[k] < smin[k - 1] and smin[k] <= smin[k + 1] \
                and smin[k] < 100 * FOCAL_SV_TOL:
            root = times[k]
        if root is not None:
            kk = int(np.argmin(np.abs(times - root)))
            mult = int(np.sum(svals[kk] < max(FOCAL_SV_TOL, 2 * smin[kk])))
            mult = max(mult, 1)
            if not out or abs(out[-1][0] - root) > 4 * (times[1] - times[0]):
                out.append((float(root), mult))
    return out


def _pl_index(r_vals: np.ndarray, times: np.ndarray, q_dim: int) -> int:
    """Negative-eigenvalue count of the piecewise-linear index form."""
    n = times.shape[0]
    node_idx = np.unique(np.linspace(0, n - 1, INDEX_ELEMENTS + 1).astype(int))
    n_nodes = node_idx.shape[0]
    dim = (n_nodes - 2) * q_dim
    if dim <= 0:
        return 0
    mat = np.zeros((dim, dim))

    def node_slice(i):
        return slice((i - 1) * q_dim, i * q_dim)

    for e in range(n_nodes - 1):
        k0, k1 = node_idx[e], node_idx[e + 1]
        ell = times[k1] - times[k0]
        grid = np.arange(k0, k1 + 1)
        ts = times[grid]
        phi_l = (times[k1] - ts) / ell
        phi_r = (ts - times[k0]) / ell
        r_blk = r_vals[grid]
        m_ll = np.trapezoid(phi_l[:, None, None] ** 2 * r_blk, ts, axis=0)
        m_lr = np.trapezoid((phi_l * phi_r)[:, None, None] * r_blk, ts, axis=0)
        m_rr = np.trapezoid(phi_r[:, None, None] ** 2 * r_blk, ts, axis=0)
        eye = np.eye(q_dim)
        blocks = {
            (e, e): eye / ell - m_ll,
            (e, e + 1): -eye / ell - m_lr,
            (e + 1, e): -eye / ell - m_lr.T,
            (e + 1, e + 1): eye / ell - m_rr,
        }
        for (i, j), blk in blocks.items():
            if 1 <= i <= n_nodes - 2 and 1 <= j <= n_nodes - 2:
                mat[node_slice(i), node_slice(j)] += blk
    evals = np.linalg.eigvalsh((mat + mat.T) / 2)
    scale = max(float(np.max(np.abs(evals))), 1.0)
    return int(np.sum(evals < -1e-9 * scale))


def index_form_quadrature(system: TransversalSystem, values: np.ndarray) -> float:
    """I(Z, Z) by trapezoid quadrature for a horizontal field on the grid."""
    g = system.geod
    h = g.step
    dz = np.empty_like(values)
    dz[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    dz[0] = (values[1] - values[0]) / h
    dz[-1] = (values[-1] - values[-2]) / h
    zprime = np.einsum("tmn,tn->tm", system.p_h, dz)
    kinetic = np.einsum("tm,tm->t", zprime, zprime)
    potential = np.einsum("tm,tmn,tn->t", values, system.r_script, values)
    return float(np.trapezoid(kinetic - potential, g.times))


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


def _quotient_curvature(rep: OrthogonalRep, manifold: ModelManifold, point,
                        x, y, s: float, config: QuotientOptimizerConfig) -> float:
    """Base curvature of the plane (x, y) at ``point`` from quotient distances.

    With d the orbit-space distance between exp(s x) and exp(s y) for an
    orthonormal pair, 12 (sqrt(2) s - d) / (sqrt(2) s^3) = K + O(s^2); the
    estimates at s and s/2, from one stacked distance call, are
    Richardson-combined to cancel the O(s^2) term.
    """
    seps = np.array([s, s / 2])
    d = quotient_distance(rep, np.array([manifold.exp(point, sep * x) for sep in seps]),
                          np.array([manifold.exp(point, sep * y) for sep in seps]),
                          config).value
    est = 12.0 * (np.sqrt(2.0) * seps - d) / (np.sqrt(2.0) * seps ** 3)
    return (4 * est[1] - est[0]) / 3


def oneill_check(rep: OrthogonalRep, manifold: ModelManifold, point, x, y,
                 step: float = 2.5e-4,
                 qconfig: QuotientOptimizerConfig | None = None) -> ONeillReport:
    """Compare K(sigma*) = K(sigma) + 3|A_X Y|^2 against a quotient estimate.

    The A-tensor path evaluates the extended tensor at the basepoint of the
    geodesic with initial direction X; the quotient path estimates the base
    curvature from orbit-space distances between points pushed out along X
    and Y, Richardson-extrapolated over two separations.
    """
    point = np.asarray(point, float)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    k_sigma = float(np.dot(manifold.curvature(point, x, y, y), x))
    window = 40 * step
    geod = OrbitGeodesic(rep, manifold, point, x, span=(-window, window), step=step)
    system = transversal_system(geod)
    center = system.index_at(0.0)
    y_f = geod.to_frame(center, y)
    a_xy = system.a[center] @ y_f
    a_sq = float(np.dot(a_xy, a_xy))
    k_formula = k_sigma + 3 * a_sq
    cfg = qconfig or QuotientOptimizerConfig(restarts=4, evals=1500, probes=100)
    k_est = _quotient_curvature(rep, manifold, point, x, y, ONEILL_SEPARATION, cfg)
    return ONeillReport(k_sigma, a_sq, k_formula, float(k_est),
                        float(abs(k_est - k_formula)))


@dataclass
class RescaleReport:
    lambdas: tuple
    values: tuple             # lambda^2 * curvature estimate at h_lambda(q)
    curvature_estimates: tuple
    flat_prediction: bool
    consistent: bool


def rescale_probe(rep: OrthogonalRep, point, q, lambdas=(0.125, 0.0625, 0.03125, 0.015625),
                  seed: int = 0) -> RescaleReport:
    """Blow-up probe at a singular point of a sphere action.

    Points q are pulled toward the singular point along the geodesic from
    ``point`` through ``q`` by homothety factors lambda; the report carries
    lambda^2 times the quotient-curvature estimate there, which tends to
    zero exactly when the slice representation is polar (orbifold point).
    """
    if not rep.restrict_to_sphere:
        raise TransversalError("the rescale probe runs on a sphere action")
    point = np.asarray(point, float)
    q = np.asarray(q, float)
    manifold = ModelManifold("sphere", rep.space_dim)
    v = manifold.log(point, q)
    rho = np.linalg.norm(v)
    if rho < 1e-10:
        raise TransversalError("q must differ from the base point")
    prediction = orbifold_point_test(rep, point, seed).ok
    cfg = QuotientOptimizerConfig(restarts=4, evals=2500, probes=200, seed=seed)
    rng = np.random.default_rng(seed)
    values = []
    estimates = []
    for lam in lambdas:
        x = manifold.exp(point, lam * v)
        rows = np.vstack([rep.tangent_rows(x), x[None, :]])
        hor = linalg.kernel(rows)
        if hor.shape[0] < 2:
            raise TransversalError("quotient is lower than two-dimensional; no "
                                   "curvature plane to estimate")
        best = -np.inf
        n_planes = 1 if hor.shape[0] == 2 else 3
        for _ in range(n_planes):
            if hor.shape[0] == 2:
                bx, by = hor[0], hor[1]
            else:
                c = linalg.orthonormalize(rng.standard_normal((2, hor.shape[0])))
                bx, by = c @ hor
            best = max(best, _quotient_curvature(rep, manifold, x, bx, by,
                                                 RESCALE_ETA * lam * rho, cfg))
        estimates.append(float(best))
        values.append(float(lam ** 2 * best))
    consistent = (not prediction) or (abs(values[-1]) < 1e-2)
    return RescaleReport(tuple(lambdas), tuple(values), tuple(estimates),
                         prediction, consistent)
