"""Stacked best-of-draws searches against per-draw reference loops, and
the variational-completeness probes against their grid oracles.

``find_regular_point``, ``regularize_basepoint`` and the normal-direction
search of ``discala_olmos_probe`` each rank seeded draws in one stacked
evaluation.  The references below evaluate one draw at a time and keep the
first best.  The two rank searches must return the reference result
bitwise.  The probe's shape operators are summed in another order, so its
direction and eigenvalues must agree within ``RES_TOL``; and since on a
one-dimensional normal space every draw is +-xi with exactly tied scores,
both sides keep the first draw within ``TIE_RTOL`` of the best.

Both probes decide on initial data.  Their grid oracles decide the same
questions over a grid of times: ``probe_reference`` scans each eigenfield's
distance from the orbit tangent spaces along the normal line, and
``grid_kernel_reference`` compares each focal kernel field, as a grid
function, with the Gram-Schmidt span of the Killing restrictions.  Their
verdicts must agree.  The vertical Jacobi fields of ``TransversalSystem``
come from the same initial data; ``gram_upsilon``, the grid null space they
replaced, must span the same space, with the same orbit ranks.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polaris import build_classical, linalg
from polaris.catalog import catalog_entry, catalog_list
from polaris.linalg import TIE_RTOL
from polaris.polarity import REGULAR_DRAWS, OrthogonalRep, find_regular_point, \
    regularize_basepoint
from polaris.symspace import ModelManifold
from polaris.transversal import FOCAL_SV_TOL, MAX_STEP, PROBE_DRAWS, PROBE_MIN_EIG, \
    OrbitGeodesic, TransversalError, TransversalSystem, _matrix_solution, \
    discala_olmos_probe, focal_points, variational_completeness_probe

from grid_oracle import basis_on_grid

RES_TOL = 1e-12
TANGENCY_TOL = 1e-3         # the eigenfield verdict of analyze's variational-completeness
ANGLE_TOL = 1e-6            # its kernel-probe tolerance
SEEDS = st.integers(0, 200)
BUNDLES = [e.build() for e in catalog_list()]
# every catalog representation on its own space and on the unit sphere
REPS = {f"{b['rep'].name}:{'sphere' if flag else 'euclidean'}":
        replace(b["rep"], restrict_to_sphere=flag)
        for b in BUNDLES if "rep" in b for flag in (False, True)}
# the subalgebras of both su(3) pairs, and each pair's own k
SUBALGEBRAS = {}
for name in ("t2_cp2", "hermann_su3"):
    bundle = catalog_entry(name).build()
    SUBALGEBRAS[name] = (bundle["pair"], bundle["subalgebra"])
    SUBALGEBRAS[f"{name}:k"] = (bundle["pair"], bundle["pair"].k)


def regular_point_reference(rep, seed):
    rng = np.random.default_rng(seed)
    best_rank, best = -1, None
    for _ in range(REGULAR_DRAWS):
        v = rng.standard_normal(rep.space_dim)
        if rep.restrict_to_sphere:
            v = v / np.linalg.norm(v)
        r = linalg.svd_rank(rep.tangent_rows(v))
        if r > best_rank:
            best_rank, best = r, v
    return best


def regularize_reference(pair, h, seed):
    """One orthonormalised conjugate and one SVD per draw.

    The exponentials come from the same metric root and stacked ``eigh`` as
    the library's; the draw search is what is compared.
    """
    alg = pair.algebra
    rng = np.random.default_rng(seed)
    zs = []
    for _ in range(REGULAR_DRAWS):
        z = rng.standard_normal(alg.dim)
        zs.append(z / max(alg.norm(z), 1e-12) * rng.uniform(0.2, 2.5))
    root, root_inv = alg.metric_root
    skew = root.T @ alg.ad(np.array(zs)) @ root_inv.T
    lam, vec = np.linalg.eigh(1j * skew)
    rot = ((vec * np.exp(1j * lam)[:, None, :]) @ np.conj(np.swapaxes(vec, 1, 2))).real
    ad_inv = root_inv.T @ rot @ root.T
    best_basis = h.basis
    best_rank = linalg.svd_rank(pair.project_p(h.basis))
    for m in ad_inv:
        cand = linalg.orthonormalize(h.basis @ m.T, alg.metric_root)
        r = linalg.svd_rank(pair.project_p(cand))
        if r > best_rank:
            best_rank, best_basis = r, cand
    return best_basis


def shape_operator_reference(rep, point, direction, basis):
    rows = rep.tangent_rows(point)
    k = basis.shape[0]
    s = np.zeros((k, k))
    pinv = np.linalg.pinv(rows.T)
    for b in range(k):
        big = np.einsum("i,iab->ab", pinv @ basis[b], rep.generators)
        for a in range(k):
            s[a, b] = float(big @ basis[a] @ direction)
    return (s + s.T) / 2


def probe_reference(rep, point, seed, step):
    """(xi, eigenvalues, tangency residuals), or None when no draw qualifies."""
    tangent = linalg.orthonormalize(rep.tangent_rows(point))
    normal = linalg.complement(tangent, rep.space_dim)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(PROBE_DRAWS):
        xi = rng.standard_normal(normal.shape[0]) @ normal
        xi /= np.linalg.norm(xi)
        s = shape_operator_reference(rep, point, xi, tangent)
        draws.append((float(np.min(np.abs(np.linalg.eigvalsh(s)))), xi, s))
    top = max(score for score, _, _ in draws)
    score, xi, s = next(d for d in draws if d[0] >= top - TIE_RTOL * top)
    if score < PROBE_MIN_EIG:
        return None
    lam, vec = np.linalg.eigh(s)
    u = vec.T @ tangent
    times = np.arange(int(np.ceil(1.4 * float(np.max(1.0 / np.abs(lam))) / step))) * step
    span = linalg.row_space_stack(rep.tangent_rows(point + np.multiply.outer(times, xi)))
    dist = np.linalg.norm(u - (u @ np.swapaxes(span, 1, 2)) @ span, axis=-1)
    far = np.abs(1.0 - np.multiply.outer(times, lam)) >= 0.05
    return xi, lam, np.max(np.where(far, dist, 0.0), axis=0)


def grid_gamma(geod):
    """The geodesic's points at every grid time, (n_t, D), from the model."""
    return geod.manifold.geodesic(geod.point, geod.direction, geod.times)[0]


def killing_restrictions(geod):
    """The frame coordinates of every generator's Killing field at every
    grid time, shape (n_gen, n_t, m), from the model's points and parallel
    frames over the grid."""
    frames, _ = geod.manifold.parallel_frames(geod.point, geod.direction, geod.times)
    return np.swapaxes(geod.rep.tangent_rows(grid_gamma(geod)) @ frames, 0, 1)


def gram_upsilon(geod):
    """The vertical Jacobi fields as a grid null space: the N-Jacobi
    combinations tangent to the orbits at every grid time, the null space of
    q = sum_k n_k n_k^T over the orbit-normal parts n_k of the field values."""
    span = linalg.row_space_stack(np.swapaxes(killing_restrictions(geod), 0, 1))
    normal = np.swapaxes(basis_on_grid(geod), 1, 2)
    normal = normal - (normal @ np.swapaxes(span, 1, 2)) @ span
    evals, evecs = np.linalg.eigh(np.tensordot(normal, normal, axes=([0, 2], [0, 2])))
    return evecs[:, evals < 1e-10 * max(float(evals[-1]), 1.0)].T


def grid_kernel_reference(geod):
    """Worst angle of the focal kernel fields from the Killing restrictions,
    both as grid functions: each kernel field's values over the grid against
    the Gram-Schmidt span of the Killing fields' values over the grid."""
    raw = killing_restrictions(geod)
    killing = linalg.orthonormalize(raw.reshape(raw.shape[0], -1))
    values = np.moveaxis(basis_on_grid(geod), 2, 0)
    values = values.reshape(values.shape[0], -1)      # one grid function per row
    worst = 0.0
    for t_star, _ in focal_points(geod):
        _, svals, vh = np.linalg.svd(_matrix_solution(geod, t_star))
        for flat in vh[svals < FOCAL_SV_TOL] @ values:
            norm = np.linalg.norm(flat)
            if norm < 1e-14:
                continue
            if killing.shape[0] == 0:
                worst = np.pi / 2
                continue
            res = linalg.span_residual(killing, flat / norm)
            worst = max(worst, float(np.arcsin(np.clip(res, 0.0, 1.0))))
    return worst


def ad_rep(n):
    alg = build_classical("special-orthogonal", n)
    return OrthogonalRep(alg, alg.ad(np.eye(alg.dim)), alg.dim, name=f"ad_so{n}")


# every catalog representation on its model, and ad so(n) for n <= 6
MODELS = {b["rep"].name: (b["rep"], b["manifold"]) for b in BUNDLES if "rep" in b}
MODELS.update({rep.name: (rep, ModelManifold("euclidean", rep.space_dim))
               for rep in map(ad_rep, range(3, 7))})


def seeded_geodesic(rep, manifold, seed):
    """The geodesic of ``rep`` in a seeded orthonormal basis of each factor
    of the model, from a seeded regular point (of norm the factor's radius,
    1 on a flat factor) along a seeded unit normal."""
    rng = np.random.default_rng(seed)
    d = rep.space_dim
    q = np.zeros((d, d))
    for part, _ in manifold.factors:
        k = part.stop - part.start
        q[part, part] = np.linalg.qr(rng.standard_normal((k, k)))[0]
    rep = replace(rep, generators=q @ rep.generators @ q.T)
    point = find_regular_point(rep, seed)
    for part, radius in manifold.factors:
        point[part] *= (radius or 1.0) / np.linalg.norm(point[part])
    tangent = linalg.orthonormalize(rep.tangent_rows(point))
    v = manifold.project_tangent(point, rng.standard_normal(d))
    v -= (v @ tangent.T) @ tangent
    return OrbitGeodesic(rep, manifold, point, v / np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REPS)), SEEDS)
def test_find_regular_point_matches_loop(name, seed):
    rep = REPS[name]
    got = find_regular_point(rep, seed)
    assert np.array_equal(got, regular_point_reference(rep, seed))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SUBALGEBRAS)), SEEDS)
def test_regularize_basepoint_matches_loop(name, seed):
    pair, h = SUBALGEBRAS[name]
    got = regularize_basepoint(pair, h, seed)
    assert np.array_equal(got.basis, regularize_reference(pair, h, seed))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(n for n in REPS if n.endswith(":euclidean"))), SEEDS)
def test_probe_direction_matches_loop(name, seed):
    rep = REPS[name]
    point = find_regular_point(rep, seed)
    want = probe_reference(rep, point, seed, MAX_STEP)
    if want is None:
        with pytest.raises(TransversalError):
            discala_olmos_probe(rep, point, seed)
        return
    got = discala_olmos_probe(rep, point, seed)
    xi, lam, tangency = want
    assert np.max(np.abs(got.xi - xi)) < RES_TOL
    assert np.max(np.abs([r.eigenvalue for r in got.records] - lam)) < RES_TOL
    assert (got.worst_tangency < TANGENCY_TOL) == (np.max(tangency) < TANGENCY_TOL)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_regular_point_search_is_one_svd(svd_calls):
    find_regular_point(REPS["so3_sym_traceless:euclidean"], seed=3)
    assert len(svd_calls) <= 1


def test_basepoint_search_is_at_most_two_svds(svd_calls):
    pair, h = SUBALGEBRAS["hermann_su3"]
    regularize_basepoint(pair, h, seed=3)
    assert len(svd_calls) <= 2


@pytest.mark.parametrize("name", ["t2_cp2", "hermann_su3"])
def test_basepoint_search_stops_at_the_rank_bound(monkeypatch, name):
    # no conjugate of h projects to p with rank above min(dim h, dim p), so
    # the search stops at the first draw that reaches it; on both su(3)
    # pairs the first conjugate does, where all REGULAR_DRAWS used to be
    # conjugated.  The result is still the 64-draw reference's, bitwise.
    pair, h = SUBALGEBRAS[name]
    pair.algebra.metric_root            # cached before the count starts
    conjugated = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        conjugated.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    for seed in range(40):
        conjugated.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted)
            got = regularize_basepoint(pair, h, seed)
        assert sum(conjugated) <= 2, (seed, conjugated)
        assert np.array_equal(got.basis, regularize_reference(pair, h, seed)), seed


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(MODELS)), SEEDS)
def test_initial_data_probes_give_the_grid_verdicts(name, seed):
    geod = seeded_geodesic(*MODELS[name], seed)
    probe = variational_completeness_probe(geod, ANGLE_TOL)
    assert probe.ok == (grid_kernel_reference(geod) < ANGLE_TOL)
    if geod.manifold.kind != "euclidean":
        return
    want = probe_reference(geod.rep, geod.point, seed, MAX_STEP)
    if want is None:
        with pytest.raises(TransversalError):
            discala_olmos_probe(geod.rep, geod.point, seed)
        return
    got = discala_olmos_probe(geod.rep, geod.point, seed)
    assert (got.worst_tangency < TANGENCY_TOL) == (np.max(want[2]) < TANGENCY_TOL)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(MODELS)), SEEDS)
def test_vertical_fields_from_initial_data_are_the_grid_null_space(name, seed):
    geod = seeded_geodesic(*MODELS[name], seed)
    system = TransversalSystem(geod)
    want = gram_upsilon(geod)
    assert system.upsilon_coeffs.shape == want.shape
    assert np.max(linalg.principal_angles(system.upsilon_coeffs, want), initial=0.0) <= 1e-10
    assert np.array_equal(system.orbit_rank,
                          linalg.svd_rank(geod.rep.tangent_rows(grid_gamma(geod))))
    # the orbit-tangent part of P_x A xi is -S_xi (A x), in orbit-tangent coordinates
    x, tangent = geod.point, geod.orbit_tangent
    values = geod.rep.tangent_rows(x) @ tangent.T
    derivs = geod.manifold.project_tangent(x, geod.rep.tangent_rows(geod.direction)) @ tangent.T
    assert np.max(np.abs(derivs + values @ geod.shape_operator), initial=0.0) <= 1e-12
