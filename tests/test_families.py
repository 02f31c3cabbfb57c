"""Weyl data of the classical families against their tabulated values and
against the enumeration oracle of ``families``."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polaris as pl
from polaris.cli import analyze
from polaris.liealg import Subspace
from polaris.weyl import _chamber, restricted_roots, weyl_group_closure

from families import enumerate_weyl_group, multiplicities, rank, s_representation, \
    symmetric_pair, weyl_order

# every member up to rank 6 whose algebra builds in well under a second:
# B_q and A_(n-1) to rank 6, D_q to rank 4, BC_q and C_q to rank 3 (su(9)
# takes seconds to build)
MEMBERS = [("so", q + 1, q) for q in range(1, 7)] + [("so", q, q) for q in range(2, 5)] \
    + [("su/so", n) for n in range(3, 8)] \
    + [("su", q + 1, q) for q in range(1, 4)] + [("su", q, q) for q in range(1, 4)]
SMALL = [m for m in MEMBERS if weyl_order(*m) <= 48]


def root_system(member, seed=0, rotation=None):
    pair = symmetric_pair(*member)
    a = pl.maximal_abelian(pair, seed=seed)
    if rotation is not None:
        a = Subspace(a.ambient, rotation @ a.basis)
    return restricted_roots(pair, a, seed=seed)


@pytest.mark.parametrize("member", MEMBERS, ids=str)
def test_order_and_multiplicities_are_classical(member):
    roots = root_system(member)
    assert sorted(m for _, m in roots.roots) == multiplicities(*member)
    assert weyl_group_closure(roots).order == weyl_order(*member)


@settings(max_examples=100, deadline=None)
@given(member=st.sampled_from(SMALL), seed=st.integers(0, 2 ** 16))
def test_folded_distances_equal_the_enumeration(member, seed):
    # in a random orthonormal basis of a, the order equals the size of the
    # enumerated group and min_w |x - w y| equals the distance of the folds
    rng = np.random.default_rng(seed)
    k = rank(*member)
    rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
    roots = root_system(member, seed, rotation)
    group = weyl_group_closure(roots)
    elements = enumerate_weyl_group(roots)
    assert len(elements) == group.order
    x, y = rng.uniform(-1.5, 1.5, (2, 200, k))
    images = np.einsum("wij,nj->nwi", elements, y)
    oracle = np.min(np.linalg.norm(x[:, None] - images, axis=-1), axis=1)
    folded = _chamber(group, np.concatenate([x, y]))
    assert np.max(np.abs(np.linalg.norm(folded[:200] - folded[200:], axis=1) - oracle)) < 1e-12


def test_rank_five_order_takes_under_a_tenth_of_a_second():
    pair = symmetric_pair("so", 6, 5)
    a = pl.maximal_abelian(pair, seed=0)
    start = time.perf_counter()
    order = weyl_group_closure(restricted_roots(pair, a, seed=0)).order
    assert time.perf_counter() - start < 0.1
    assert order == 3840


@pytest.mark.parametrize("member", [("so", 4, 3), ("su/so", 4)], ids=str)
def test_reduction_isometry_passes_at_rank_three(member):
    weyl, reduction = analyze(s_representation(symmetric_pair(*member)),
                              ["weyl", "reduction-isometry"]).records
    assert weyl.verdict["order"] == weyl_order(*member)
    assert reduction.status == "pass", reduction
