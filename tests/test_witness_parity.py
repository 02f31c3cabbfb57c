"""Stacked bracket predicates against per-element reference loops.

Each reference walks the basis pairs or triples (or generators) one element
at a time and keeps the first largest residual in lexicographic order.  The
stacked predicates must give the same verdict, the same witness indices and
residuals that agree within ``RES_TOL``.  Values within a relative
``TIE_RTOL`` of the largest count as a maximum: residuals that are equal in
exact arithmetic are common ([v, w] = -[w, v], the antisymmetric pairing
matrices of a representation, the extra symmetry of a rank-one space), and
the stacked and the per-element sums round differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polaris import linalg
from polaris.catalog import catalog_entry, su2su2_swap_pair, su3_pair_block, \
    su3_pair_conjugation
from polaris.liealg import Subspace, centralizer_in, is_abelian_subspace, \
    is_lie_triple_system
from polaris.linalg import SPAN_TOL, TIE_RTOL, WITNESS_FLOOR, IndeterminateVerdict
from polaris.polarity import PAIRING_TOL, find_regular_point, is_polar_homogeneous, \
    is_polar_rep, regularize_basepoint

RES_TOL = 1e-12
PAIRS = {"conjugation": su3_pair_conjugation(), "block": su3_pair_block()}
# on su(2)+su(2) a line leaves m a Lie triple system with [m, m] not perp h,
# the only way to reach the bracket-pairing witness among these pairs
HOMOGENEOUS_PAIRS = dict(PAIRS, swap=su2su2_swap_pair())
REPS = {name: catalog_entry(name).build()["rep"]
        for name in ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                     "hopf_s1_s3", "so2_s2", "so3_s2xs2")}


def first_max(values):
    """(index, value) of the first (index, value) entry within TIE_RTOL of the largest."""
    if not values:
        return None, 0.0
    top = max(v for _, v in values)
    return next(idx for idx, v in values if v >= top - TIE_RTOL * top), top


def robust_reference(worst, tol):
    """The reference verdict: True pass, False robust failure, None indeterminate."""
    if worst < tol:
        return True
    return False if worst >= WITNESS_FLOOR else None


def lts_reference(alg, m):
    vals = []
    for i, u in enumerate(m.basis):
        for j, v in enumerate(m.basis):
            for k, w in enumerate(m.basis):
                d = alg.bracket(u, alg.bracket(v, w))
                vals.append(((i, j, k), linalg.span_residual(m.basis, d, alg.inner)))
    return first_max(vals)


def perp_reference(alg, m, h):
    vals = []
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            br = alg.bracket(m.basis[i], m.basis[j])
            for a in range(h.dim):
                vals.append(((i, j, a), abs(float(br @ alg.inner @ h.basis[a]))))
    return first_max(vals)


def random_subspace(pair, where, dim, rng):
    alg = pair.algebra
    ambient = {"p": pair.p.basis, "k": pair.k.basis, "g": np.eye(alg.dim)}[where]
    dim = min(dim, ambient.shape[0])
    rows = linalg.orthonormalize(rng.standard_normal((dim, ambient.shape[0])) @ ambient,
                                 alg.metric_root)
    return Subspace(alg.name, rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PAIRS)), st.sampled_from(["p", "k", "g"]),
       st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_lts_and_abelian_witnesses_match_loops(pair_name, where, dim, seed):
    pair = PAIRS[pair_name]
    alg = pair.algebra
    m = random_subspace(pair, where, dim, np.random.default_rng(seed))

    idx, worst = lts_reference(alg, m)
    want = robust_reference(worst, SPAN_TOL)
    if want is None:
        with pytest.raises(IndeterminateVerdict):
            is_lie_triple_system(alg, m)
    else:
        got = is_lie_triple_system(alg, m)
        assert got.ok == want
        assert abs(got.residual - worst) < RES_TOL
        if not want:
            assert got.witness[:3] == idx
            assert abs(got.witness[3] - worst) < RES_TOL

    pairs = [((i, j), alg.norm(alg.bracket(m.basis[i], m.basis[j])))
             for i in range(m.dim) for j in range(i + 1, m.dim)]
    worst = max((v for _, v in pairs), default=0.0)
    want = robust_reference(worst, SPAN_TOL)
    if want is None:
        with pytest.raises(IndeterminateVerdict):
            is_abelian_subspace(alg, m)
    else:
        got = is_abelian_subspace(alg, m)
        assert got.ok == want
        assert abs(got.residual - worst) < RES_TOL
        if not want:
            first, value = next((ij, v) for ij, v in pairs if v > SPAN_TOL)
            assert got.witness[:2] == first
            assert abs(got.witness[2] - value) < RES_TOL


def polar_rep_reference(rep, seed):
    """The per-generator loop over pairings <A_i v_a, v_b> of section rows."""
    p = find_regular_point(rep, seed)
    tangent = rep.tangent_rows(p)
    section = linalg.complement(tangent, rep.space_dim) if tangent.size \
        else np.eye(rep.space_dim)
    vals = []
    for i in range(rep.n_generators):
        pair = section @ rep.generators[i] @ section.T
        vals += [((i, a, b, pair[a, b]), abs(pair[a, b]))
                 for a in range(pair.shape[0]) for b in range(pair.shape[1])]
    first, worst = first_max(vals)
    if first is None:
        return worst, None
    i, a, b, value = first
    return worst, (i, section[a], section[b], float(value))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(REPS)), st.integers(0, 2 ** 31 - 1))
def test_polar_rep_witness_matches_loop(name, seed):
    rep = REPS[name]
    worst, witness = polar_rep_reference(rep, seed)
    want = robust_reference(worst, PAIRING_TOL)
    if want is None:
        with pytest.raises(IndeterminateVerdict):
            is_polar_rep(rep, seed)
        return
    got = is_polar_rep(rep, seed)
    assert got.polar == want
    assert abs(got.residual - worst) < RES_TOL
    if not want:
        assert got.witness[0] == witness[0]
        assert np.array_equal(got.witness[1], witness[1])
        assert np.array_equal(got.witness[2], witness[2])
        assert abs(got.witness[3] - witness[3]) < RES_TOL


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(HOMOGENEOUS_PAIRS)), st.sampled_from(["line", "torus"]),
       st.integers(0, 2 ** 31 - 1))
def test_polar_homogeneous_witness_matches_loops(pair_name, kind, seed):
    pair = HOMOGENEOUS_PAIRS[pair_name]
    alg = pair.algebra
    x = np.random.default_rng(seed).standard_normal(alg.dim)
    # a line is a subalgebra; the centralizer of a generic element is a maximal torus
    h = Subspace(alg.name, x[None, :] / alg.norm(x)) if kind == "line" \
        else centralizer_in(alg, x, alg.full_space())
    hreg = regularize_basepoint(pair, h, seed)
    coeffs = linalg.kernel(hreg.basis @ alg.inner @ pair.p.basis.T)
    m = Subspace(alg.name, linalg.orthonormalize(coeffs @ pair.p.basis,
                                                  alg.metric_root))
    lts_idx, lts_worst = lts_reference(alg, m)
    perp_idx, perp_worst = perp_reference(alg, m, hreg)
    lts_ok = robust_reference(lts_worst, SPAN_TOL)
    perp_ok = robust_reference(perp_worst, SPAN_TOL)
    if None in (lts_ok, perp_ok):
        with pytest.raises(IndeterminateVerdict):
            is_polar_homogeneous(pair, h, seed)
        return
    got = is_polar_homogeneous(pair, h, seed)
    assert got.polar == (lts_ok and perp_ok)
    assert got.cohomogeneity == m.dim
    assert abs(got.residual - max(lts_worst, perp_worst)) < RES_TOL
    if not lts_ok:
        assert got.witness[:4] == ("lts",) + lts_idx
        assert abs(got.witness[4] - lts_worst) < RES_TOL
    elif not perp_ok:
        assert got.witness[:4] == ("bracket-pairing",) + perp_idx
        assert abs(got.witness[4] - perp_worst) < RES_TOL
