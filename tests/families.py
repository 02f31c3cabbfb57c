"""The three classical symmetric-pair families, with their tabulated root data.

Each member is built from ``build_classical`` and an involution given by
``involution_from_matrix_map`` (Helgason, Differential Geometry, Lie Groups,
and Symmetric Spaces, ch. X):

- ``"so"``: so(p+q)/so(p)+so(q), restricted roots B_q for p > q with
  multiplicities 1 (long) and p - q (short), D_q for p = q;
- ``"su/so"``: su(n)/so(n), A_(n-1) with multiplicity 1 (q is unused);
- ``"su"``: su(p+q)/s(u(p)+u(q)), BC_q for p > q with multiplicities 2,
  2(p - q) and 1 (on +-e_i +- e_j, +-e_i and +-2e_i), C_q for p = q.

``enumerate_weyl_group`` is the enumeration oracle: it closes the root
reflections under multiplication, which costs O(|W|^2) matrix comparisons
and so serves only small groups.
"""

import functools
import math

import numpy as np

import polaris as pl


@functools.cache
def symmetric_pair(kind: str, p: int, q: int = 0) -> pl.SymmetricPair:
    if kind == "su/so":
        alg = pl.build_classical("special-unitary", p)
        return pl.cartan_decompose(alg, pl.involution_from_matrix_map(alg, np.conj))
    family = {"so": "special-orthogonal", "su": "special-unitary"}[kind]
    alg = pl.build_classical(family, p + q)
    j = np.diag([1.0] * p + [-1.0] * q)
    return pl.cartan_decompose(alg, pl.involution_from_matrix_map(alg, lambda x: j @ x @ j))


def s_representation(pair: pl.SymmetricPair) -> dict:
    """A bundle for ``polaris.cli.analyze``: the isotropy action of k on p, in
    the orthonormal basis of p, with the pair as its s-representation."""
    alg, k, p = pair.algebra, pair.k, pair.p
    # gens[a, c, b] = <p_c, [k_a, p_b]>: ad(k_a) on p in the basis of p
    gens = np.swapaxes(alg.bracket(k.basis[:, None], p.basis[None]) @ alg.inner @ p.basis.T,
                       1, 2)
    rep = pl.OrthogonalRep(alg.restrict(k.basis, f"{alg.name}|k"), gens, p.dim,
                           name=f"{alg.name}/k")
    return {"rep": rep, "manifold": pl.ModelManifold("euclidean", p.dim),
            "srep": (pair, p.basis)}


def rank(kind: str, p: int, q: int = 0) -> int:
    return p - 1 if kind == "su/so" else q


def weyl_order(kind: str, p: int, q: int = 0) -> int:
    """|W| of the member's restricted roots: A_(n-1) n!, B_q, C_q and BC_q
    2^q q!, D_q 2^(q-1) q!."""
    if kind == "su/so":
        return math.factorial(p)
    return 2 ** (q - (kind == "so" and p == q)) * math.factorial(q)


def multiplicities(kind: str, p: int, q: int = 0) -> list:
    """The sorted multiplicities of every restricted root, both signs."""
    if kind == "su/so":
        return [1] * (p * (p - 1))
    long, short, double = (1, p - q, 0) if kind == "so" else (2, 2 * (p - q), 1)
    mults = [long] * (2 * q * (q - 1)) + [short] * (2 * q) + [double] * (2 * q)
    return sorted(m for m in mults if m)


def enumerate_weyl_group(system) -> np.ndarray:
    """Every element of W as a (|W|, k, k) stack, closing the reflections
    s_lam(v) = v - 2 (<v, lam> / <lam, lam>) lam under multiplication."""
    eye = np.eye(system.a.dim)
    gens = [eye - 2.0 * np.outer(lam, lam) / float(lam @ lam)
            for lam in (np.asarray(vec, float) for vec, _ in system.positive())]
    elements, frontier = [eye], [eye]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                prod = g @ el
                if all(np.max(np.abs(prod - other)) >= 1e-6 for other in elements):
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return np.array(elements)
