"""The stacked slice pass of ``slice-scan`` and ``orbifold-points`` against
the per-point construction it replaced.

The reference below builds one slice representation per point, each kernel
from its own SVD and the isotropy rows by Gram-Schmidt, and tests it with
its own regular-point search, as ``is_polar_rep(slice_rep(rep, p))`` once
did point by point.  The stacked pass must give every point the same slice
dimension, cohomogeneity and verdict, a residual within ``RES_TOL``, and
raise the same exception at the same first offending point.  It must also
make a number of LAPACK SVD calls that does not grow with the point count.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polaris as pl
from polaris import cli, linalg
from polaris.catalog import catalog_entry
from polaris.liealg import CLOSURE_TOL
from polaris.linalg import RANK_ATOL, RANK_RTOL, IndeterminateVerdict
from polaris.polarity import PAIRING_TOL, REGULAR_DRAWS, PolarityError, \
    _slice_pairings, _slice_verdicts, _slices

RES_TOL = 1e-12
FIXTURES = ("su2_adjoint", "so3_sym_traceless", "su2_diag_double", "hopf_s1_s3", "so2_s2")
BUNDLES = {name: catalog_entry(name).build() for name in FIXTURES}
ERRORS = (PolarityError, IndeterminateVerdict)


def kernel_reference(a):
    if not np.any(a):
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    return vh[np.count_nonzero(s > max(RANK_RTOL * s[0], RANK_ATOL)):]


def rank_reference(a):
    s = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(s > np.maximum(RANK_RTOL * s[..., :1], RANK_ATOL), axis=-1)


def slice_reference(rep, point):
    """Slice generators at one point, every kernel from its own SVD."""
    if rep.restrict_to_sphere and np.linalg.norm(point) < 1e-12:
        raise PolarityError("sphere actions need a nonzero base point")
    rows = rep.tangent_rows(point)
    iso = linalg.orthonormalize(kernel_reference(rows.T), rep.algebra.metric_root)
    blocked = np.vstack([rows, point[None]]) if rep.restrict_to_sphere else rows
    normal = kernel_reference(blocked)
    if len(iso):
        br = rep.algebra.bracket(iso[:, None], iso[None])
        if np.max(linalg.span_residual(iso, br, rep.algebra.inner)) > CLOSURE_TOL:
            raise PolarityError("isotropy candidate not closed")
    return normal @ np.tensordot(iso, rep.generators, 1) @ normal.T, normal.shape[0]


def point_reference(rep, point, seed, orbifold):
    """(slice dim, cohomogeneity, verdict, residual) of one point.

    The cohomogeneity is the slice's for the orbifold test and the
    section's for the slice scan.
    """
    gens, d = slice_reference(rep, point)
    draws = np.random.default_rng(seed).standard_normal((REGULAR_DRAWS, d))
    ranks = rank_reference(np.einsum("iab,wb->wia", gens, draws))
    best = draws[np.argmax(ranks)]
    section = kernel_reference(np.einsum("iab,b->ia", gens, best))
    worst = float(np.max(np.abs(section @ gens @ section.T), initial=0.0))
    if orbifold and d - int(np.max(ranks)) <= 2:
        return d, d - int(np.max(ranks)), True, 0.0
    polar = not linalg.robust_failure(worst, PAIRING_TOL, "polar pairing test")
    return d, d - int(np.max(ranks)) if orbifold else section.shape[0], polar, worst


def stacked(rep, points, seed, orbifold):
    """(slice dim, cohomogeneity, verdict, residual) per point from the stacked pass."""
    dims = {}
    for index, _, gens in _slices(rep, points)[1]:
        dims.update(dict.fromkeys(index.tolist(), gens.shape[-1]))
    if orbifold:
        # a slice of cohomogeneity c <= 2 passes with the witness
        # ("slice-cohomogeneity", c); the test does not report c otherwise
        results = pl.orbifold_point_test(rep, points, seed)
        return [(dims[j], r.witness[1] if r.witness and r.witness[0] == "slice-cohomogeneity"
                 else None, r.ok, r.residual) for j, r in enumerate(results)]
    return [(dims[j], v.cohomogeneity, v.polar, v.residual)
            for j, v in enumerate(_slice_verdicts(rep, _slice_pairings(rep, points, seed),
                                                  PAIRING_TOL))]


def conjugated(rep, q):
    return replace(rep, generators=q @ rep.generators @ q.T)


def with_trivial_summands(rep, space, algebra):
    """rep + a trivial R^space, and + a torus of dimension ``algebra`` acting by zero."""
    d = rep.space_dim + space
    gens = np.zeros((rep.n_generators + algebra, d, d))
    gens[:rep.n_generators, :rep.space_dim, :rep.space_dim] = rep.generators
    alg = rep.algebra if not algebra else \
        pl.direct_sum(rep.algebra, pl.build_classical("torus", algebra))
    out = pl.OrthogonalRep(alg, gens, d, rep.restrict_to_sphere, name=f"{rep.name}+trivial")
    out.validate()
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIXTURES), st.booleans(), st.integers(0, 2), st.integers(0, 1),
       st.booleans(), st.integers(0, 6), st.integers(0, 2 ** 31 - 1), st.booleans())
def test_stacked_pass_matches_the_per_point_construction(
        fixture, sphere, space, algebra, origin, gaussian, seed, orbifold):
    bundle = BUNDLES[fixture]
    rep = with_trivial_summands(replace(bundle["rep"], restrict_to_sphere=sphere),
                                space, algebra)
    rng = np.random.default_rng(seed)
    d = rep.space_dim
    special = [np.eye(d)[k] for k in range(d)]                     # axis points
    special += [np.pad(p, (0, space)) for p in (bundle.get("orbifold_points") or {}).values()]
    if "sphere_singular" in bundle:
        special.append(np.pad(bundle["sphere_singular"]["point"], (0, space)))
    if origin:
        special.append(np.zeros(d))
    points = np.vstack([*special, *rng.standard_normal((gaussian, d))])
    points = points[rng.permutation(len(points))]
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    rep, points = conjugated(rep, q), points @ q.T
    seed = int(rng.integers(100))

    want = []
    for p in points:
        try:
            want.append(point_reference(rep, p, seed, orbifold))
        except ERRORS as exc:
            error = type(exc)
            break
    else:
        error = None
    first = len(want)
    if error is not None:
        # the same exception, from the same first offending point
        for stack in (points, points[:first + 1]):
            with pytest.raises(error):
                stacked(rep, stack, seed, orbifold)
    got = stacked(rep, points[:first], seed, orbifold) if first else []
    assert len(got) == first
    for (gd, gc, gok, gres), (wd, wc, wok, wres) in zip(got, want):
        assert gd == wd
        assert gok == wok
        assert abs(gres - wres) < RES_TOL
        if orbifold:
            assert (gc is not None) == (wc <= 2)
        assert gc in (None, wc)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_svd_calls_do_not_grow_with_the_point_count(fixture, monkeypatch):
    # a model document's bundle: the representation and its manifold, no
    # designated points, so every sampled point has the regular orbit type
    bundle = {key: BUNDLES[fixture][key] for key in ("rep", "manifold")}
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    counts = []
    for points in (4, 16):
        monkeypatch.setattr(cli, "SLICE_SCAN_POINTS", points)
        monkeypatch.setattr(cli, "ORBIFOLD_POINTS", points)
        types = {gens.shape for _, _, gens in
                 _slices(bundle["rep"], cli._sample_points(bundle["rep"], 0, points))[1]}
        assert len(types) == 1
        monkeypatch.setattr(np.linalg, "svd", counting)
        for check in (cli._check_slice_scan, cli._check_orbifold_points):
            calls.clear()
            check(cli._Work(bundle, 0), None, None)
            counts.append(len(calls))
        monkeypatch.setattr(np.linalg, "svd", svd)
    assert counts[:2] == counts[2:]
    assert max(counts) <= 4
