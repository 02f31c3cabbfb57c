"""Stacked best-of-draws searches against per-draw reference loops.

``find_regular_point``, ``regularize_basepoint`` and the normal-direction
search of ``discala_olmos_probe`` each rank seeded draws in one stacked
evaluation.  The references below evaluate one draw at a time and keep the
first best.  The two rank searches must return the reference result
bitwise.  The probe's shape operators are summed in another order, so its
direction, eigenvalues and tangency residuals must agree within ``RES_TOL``;
and since on a one-dimensional normal space every draw is +-xi with exactly
tied scores, both sides keep the first draw within ``TIE_RTOL`` of the best.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polaris import linalg
from polaris.catalog import catalog_entry, catalog_list
from polaris.linalg import TIE_RTOL
from polaris.polarity import REGULAR_DRAWS, find_regular_point, regularize_basepoint
from polaris.transversal import MAX_STEP, PROBE_DRAWS, PROBE_MIN_EIG, \
    TransversalError, discala_olmos_probe

RES_TOL = 1e-12
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

    The exponentials come from the same stacked ``eigh`` as the library's;
    the draw search is what is compared.
    """
    alg = pair.algebra
    rng = np.random.default_rng(seed)
    zs = []
    for _ in range(REGULAR_DRAWS):
        z = rng.standard_normal(alg.dim)
        zs.append(z / max(alg.norm(z), 1e-12) * rng.uniform(0.2, 2.5))
    chol = np.linalg.cholesky(alg.inner)
    ad = alg.ad(np.array(zs))
    skew = chol.T @ np.swapaxes(np.linalg.solve(chol, np.swapaxes(ad, 1, 2)), 1, 2)
    lam, vec = np.linalg.eigh(1j * skew)
    rot = ((vec * np.exp(1j * lam)[:, None, :]) @ np.conj(np.swapaxes(vec, 1, 2))).real
    ad_inv = np.linalg.solve(chol.T, rot @ chol.T)
    best_basis = h.basis
    best_rank = linalg.svd_rank(pair.project_p(h.basis))
    for m in ad_inv:
        cand = linalg.orthonormalize(h.basis @ m.T, alg.inner)
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
            discala_olmos_probe(rep, point, seed, MAX_STEP)
        return
    got = discala_olmos_probe(rep, point, seed, MAX_STEP)
    xi, lam, tangency = want
    assert np.max(np.abs(got.xi - xi)) < RES_TOL
    assert np.max(np.abs([r.eigenvalue for r in got.records] - lam)) < RES_TOL
    assert np.max(np.abs([r.tangency_residual for r in got.records] - tangency)) < RES_TOL


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
