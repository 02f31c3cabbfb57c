"""Built-in fixture catalog: classical actions with known verdicts.

Every entry reconstructs its models deterministically from a builder that
takes no arguments: the fixture's constants (such as the second radius
``R_PRODUCT`` of the product of spheres) live in the builder.  Expected
values carry a provenance tag: ``classical`` for textbook facts (e.g.
orthogonal diagonalisation of symmetric matrices), ``closed-form`` for
values with an exact formula on the model manifolds, ``computed`` for
values frozen from an independent oracle in the tests.  The shared
algebras and symmetric pairs (``su2_cyclic`` to ``su2su2_swap_pair``) are
built once per process: they are frozen, with read-only arrays.  Every
``build()`` still returns a fresh bundle dict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .liealg import LieAlgebra, Subspace, build_classical, direct_sum
from .polarity import OrthogonalRep
from .symspace import ModelManifold, SymmetricPair, cartan_decompose, \
    involution_from_matrix_map

R_PRODUCT = 2.0 ** 0.25          # second radius; R^2 irrational


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                    # representation | homogeneous-pair |
    #                              sphere-action | product-spheres-action
    description: str
    expected: dict = field(default_factory=dict)
    default_checks: tuple = ()

    def build(self) -> dict:
        return _BUILDERS[self.name]()


@functools.cache
def su2_cyclic() -> LieAlgebra:
    """su(2) normalised so the orthonormal basis brackets cyclically."""
    return build_classical("special-unitary", 2, metric_scale=2.0, name="su2")


@functools.cache
def so3_cyclic() -> LieAlgebra:
    return build_classical("special-orthogonal", 3, metric_scale=0.5, name="so3")


@functools.cache
def su3_pair_conjugation() -> SymmetricPair:
    """su(3) with complex conjugation: the split so(3) + (symmetric part)."""
    alg = build_classical("special-unitary", 3, name="su3")
    theta = involution_from_matrix_map(alg, np.conj)
    return cartan_decompose(alg, theta)


@functools.cache
def su3_pair_block() -> SymmetricPair:
    """su(3) with Ad of diag(1, -1, -1): the split s(u(1)+u(2)) + m."""
    alg = build_classical("special-unitary", 3, name="su3")
    j = np.diag([1.0, -1.0, -1.0])
    theta = involution_from_matrix_map(alg, lambda x: j @ x @ j)
    return cartan_decompose(alg, theta)


@functools.cache
def su2su2_swap_pair() -> SymmetricPair:
    both = direct_sum(su2_cyclic(), su2_cyclic(), name="su2+su2")
    n = 3
    theta = np.zeros((2 * n, 2 * n))
    theta[:n, n:] = np.eye(n)
    theta[n:, :n] = np.eye(n)
    return cartan_decompose(both, theta)


def _su2_adjoint() -> dict:
    alg = su2_cyclic()
    rep = OrthogonalRep(alg, alg.ad(np.eye(3)), 3, name="su2_adjoint")
    rep.validate()
    pair = su2su2_swap_pair()
    p_map = np.zeros((3, 6))
    p_map[:, :3] = np.eye(3) / np.sqrt(2)
    p_map[:, 3:] = -np.eye(3) / np.sqrt(2)
    point = np.array([0.6, 0.64, 0.48])
    return {
        "rep": rep,
        "manifold": ModelManifold("euclidean", 3),
        "srep": (pair, p_map),
        "basepoint": point,
        "direction": -point,                      # inward: focal time |p| = 1
        "span": (0.0, float(np.pi)),
    }


def _so3_sym_traceless() -> dict:
    pair = su3_pair_conjugation()
    alg = pair.algebra
    k, p = pair.k, pair.p
    # gens[a, c, b] = <p_c, [k_a, p_b]>: ad(k_a) on p in the basis of p
    br = alg.bracket(k.basis[:, None], p.basis[None])
    gens = np.swapaxes(br @ alg.inner @ p.basis.T, 1, 2)
    sub = alg.restrict(k.basis, f"{alg.name}|sub")
    sub.validate()
    rep = OrthogonalRep(sub, gens, p.dim, name="so3_sym_traceless")
    rep.validate()
    d1 = alg.coordinates(1j * np.diag([1.0, -1.0, 0.0]))
    d2 = alg.coordinates(1j * np.diag([1.0, 1.0, -2.0]))
    flat = np.array([p.basis @ alg.inner @ d1, p.basis @ alg.inner @ d2])
    flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    point = 0.8 * flat[0] + 0.6 * flat[1]
    direction = 0.28 * flat[0] - 0.96 * flat[1]
    return {
        "rep": rep,
        "manifold": ModelManifold("euclidean", p.dim),
        "srep": (pair, pair.p.basis),
        "basepoint": point,
        "direction": direction,
        "span": (0.0, float(np.pi)),
        "flat_basis": flat,
    }


def _su2_diag_double() -> dict:
    alg = su2_cyclic()
    ad = alg.ad(np.eye(3))
    gens = np.zeros((3, 6, 6))
    gens[:, :3, :3] = ad
    gens[:, 3:, 3:] = ad
    rep = OrthogonalRep(alg, gens, 6, name="su2_diag_double")
    rep.validate()
    singular = np.array([1.0, 0, 0, 0, 0, 0])
    slice_dir = np.array([0.0, 0, 0, 0.6, 0.8, 0])
    q = np.cos(0.35) * singular + np.sin(0.35) * slice_dir
    return {
        "rep": rep,
        "manifold": ModelManifold("euclidean", 6),
        "basepoint": np.array([1.0, 0.1, -0.2, 0.25, 0.85, -0.4]),
        "direction": None,                  # drawn from the normal space
        "span": (0.0, float(np.pi)),
        "sphere_singular": {"point": singular, "regular_q": q},
        "orbifold_points": {"origin": np.zeros(6)},
    }


def _hopf() -> dict:
    alg = build_classical("torus", 1, name="u1")
    k = np.zeros((4, 4))
    k[0, 1], k[1, 0] = -1.0, 1.0
    k[2, 3], k[3, 2] = -1.0, 1.0
    rep = OrthogonalRep(alg, k[None, :, :], 4, restrict_to_sphere=True,
                        name="hopf_s1_s3")
    rep.validate()
    return {
        "rep": rep,
        "manifold": ModelManifold("sphere", 4),
        "basepoint": np.array([1.0, 0, 0, 0]),
        "direction": np.array([0.0, 0, 1.0, 0]),
        "span": (0.0, float(np.pi)),
        "horizontal_pair": (np.array([0.0, 0, 1.0, 0]), np.array([0.0, 0, 0, 1.0])),
    }


def _so2_s2() -> dict:
    alg = build_classical("special-orthogonal", 2, name="so2")
    gen = np.zeros((3, 3))
    gen[0, 1], gen[1, 0] = -1.0, 1.0
    rep = OrthogonalRep(alg, gen[None, :, :], 3, restrict_to_sphere=True,
                        name="so2_s2")
    rep.validate()
    return {
        "rep": rep,
        "manifold": ModelManifold("sphere", 3),
        "basepoint": np.array([1.0, 0, 0]),
        "direction": np.array([0.0, 0, 1.0]),
        "span": (0.0, float(np.pi)),
    }


def _t2_cp2() -> dict:
    pair = su3_pair_block()
    alg = pair.algebra
    t1 = alg.coordinates(1j * np.diag([1.0, -1.0, 0.0]))
    t2 = alg.coordinates(1j * np.diag([0.0, 1.0, -1.0]))
    h = Subspace(alg.name, linalg.orthonormalize(np.array([t1, t2]), alg.metric_root))
    return {"pair": pair, "subalgebra": h}


def _hermann_su3() -> dict:
    pair = su3_pair_conjugation()
    block = su3_pair_block()
    h = Subspace(pair.algebra.name, block.k.basis)
    return {"pair": pair, "subalgebra": h}


def footnote_curve(times: np.ndarray):
    """The cohomogeneity-one product geodesic, reparametrised to unit speed.

    The raw curve t -> ((cos t, sin t, 0), (R sin(t/R^2), R cos(t/R^2), 0)),
    R = ``R_PRODUCT``, is a geodesic of speed sqrt(1 + 1/R^2); the arclength
    reparametrisation keeps its image and normality to the diagonal orbits.
    """
    r = R_PRODUCT
    c = 1.0 / np.sqrt(1.0 + 1.0 / r ** 2)
    t = np.asarray(times, float) * c
    gam = np.stack([np.cos(t), np.sin(t), np.zeros_like(t),
                    r * np.sin(t / r ** 2), r * np.cos(t / r ** 2),
                    np.zeros_like(t)], axis=1)
    dgam = np.stack([-np.sin(t), np.cos(t), np.zeros_like(t),
                     np.cos(t / r ** 2) / r, -np.sin(t / r ** 2) / r,
                     np.zeros_like(t)], axis=1) * c
    return gam, dgam


def _so3_s2xs2() -> dict:
    alg = so3_cyclic()
    mats = [m.real for m in alg.realization]
    gens = np.zeros((3, 6, 6))
    for i, m in enumerate(mats):
        gens[i, :3, :3] = m
        gens[i, 3:, 3:] = m
    rep = OrthogonalRep(alg, gens, 6, name="so3_s2xs2")
    rep.validate()
    manifold = ModelManifold("product-spheres", 6, radii=(1.0, R_PRODUCT),
                             split=(3, 3))
    gam, dgam = footnote_curve(np.array([0.0]))
    return {
        "rep": rep,
        "manifold": manifold,
        "basepoint": gam[0],
        "direction": dgam[0],
        "span": (0.0, float(np.pi)),
    }


_BUILDERS = {
    "su2_adjoint": _su2_adjoint,
    "so3_sym_traceless": _so3_sym_traceless,
    "su2_diag_double": _su2_diag_double,
    "hopf_s1_s3": _hopf,
    "so2_s2": _so2_s2,
    "t2_cp2": _t2_cp2,
    "hermann_su3": _hermann_su3,
    "so3_s2xs2": _so3_s2xs2,
}


_PI_HALF = float(np.pi / 2)

_ENTRIES = (
    CatalogEntry(
        "su2_adjoint", "representation",
        "adjoint action of su(2) on itself; orbits are round spheres",
        expected={
            "polarity": {"value": True, "provenance": "classical"},
            "cohomogeneity": {"value": 1, "provenance": "classical"},
            "weyl": {"value": {"roots": 2, "order": 2}, "provenance": "computed"},
            "variational-completeness": {
                "value": {"probe": True, "eigenfield_tangency": True},
                "provenance": "computed"},
            "orbifold-points": {"value": True, "provenance": "computed"},
        },
        default_checks=("polarity", "cohomogeneity", "slice-scan",
                        "orbifold-points", "weyl", "reduction-isometry",
                        "jacobi-scan", "variational-completeness"),
    ),
    CatalogEntry(
        "so3_sym_traceless", "representation",
        "so(3) conjugating traceless symmetric matrices (5-dimensional)",
        expected={
            "polarity": {"value": True, "provenance": "classical"},
            "cohomogeneity": {"value": 2, "provenance": "classical"},
            "weyl": {"value": {"roots": 6, "order": 6}, "provenance": "computed"},
            "variational-completeness": {
                "value": {"probe": True, "eigenfield_tangency": True},
                "provenance": "computed"},
            "cartan-probe": {"value": True, "provenance": "computed"},
            "orbifold-points": {"value": True, "provenance": "computed"},
        },
        default_checks=("polarity", "cohomogeneity", "slice-scan",
                        "orbifold-points", "weyl", "reduction-isometry",
                        "jacobi-scan", "variational-completeness", "cartan-probe"),
    ),
    CatalogEntry(
        "su2_diag_double", "representation",
        "su(2) acting diagonally on two adjoint copies; not polar",
        expected={
            "polarity": {"value": False, "provenance": "computed"},
            "cohomogeneity": {"value": 3, "provenance": "computed"},
            "orbifold-points": {
                "value": {"sampled": True, "designated": {"origin": False}},
                "provenance": "computed"},
            # the default geodesic's focal kernels happen to be Killing, so
            # the probe alone does not witness the failure; the eigenfield
            # tangency does
            "variational-completeness": {
                "value": {"probe": True, "eigenfield_tangency": False},
                "provenance": "computed"},
            "rescale-probe": {"value": True, "provenance": "computed"},
        },
        default_checks=("polarity", "cohomogeneity", "orbifold-points",
                        "variational-completeness", "rescale-probe"),
    ),
    CatalogEntry(
        "hopf_s1_s3", "sphere-action",
        "circle action on the 3-sphere along the Hopf fibration",
        expected={
            "polarity": {"value": False, "provenance": "classical"},
            "cohomogeneity": {"value": 2, "provenance": "classical"},
            "oneill": {"value": 4.0, "atol": 1e-2, "provenance": "closed-form"},
            "transversal": {"value": {"first_conjugate": _PI_HALF, "index": 1,
                                      "sturm": True},
                            "atol": 1e-3, "provenance": "closed-form"},
            "variational-completeness": {
                "value": {"probe": False, "eigenfield_tangency": None},
                "provenance": "computed"},
        },
        default_checks=("polarity", "cohomogeneity", "jacobi-scan", "oneill",
                        "transversal", "variational-completeness"),
    ),
    CatalogEntry(
        "so2_s2", "sphere-action",
        "rotation of the 2-sphere about an axis; latitude orbits",
        expected={
            "polarity": {"value": True, "provenance": "classical"},
            "cohomogeneity": {"value": 1, "provenance": "classical"},
            "variational-completeness": {
                "value": {"probe": True, "eigenfield_tangency": None},
                "provenance": "computed"},
            "orbifold-points": {"value": True, "provenance": "classical"},
        },
        default_checks=("polarity", "cohomogeneity", "orbifold-points",
                        "jacobi-scan", "variational-completeness"),
    ),
    CatalogEntry(
        "t2_cp2", "homogeneous-pair",
        "maximal torus of su(3) acting on the complex projective plane",
        expected={
            "polarity": {"value": True, "provenance": "classical"},
            "hyperpolarity": {"value": False, "provenance": "classical"},
        },
        default_checks=("polarity", "hyperpolarity"),
    ),
    CatalogEntry(
        "hermann_su3", "homogeneous-pair",
        "symmetric subgroup s(u(1)+u(2)) acting on SU(3)/SO(3)",
        expected={
            "polarity": {"value": True, "provenance": "classical"},
            "hyperpolarity": {"value": True, "provenance": "classical"},
        },
        default_checks=("polarity", "hyperpolarity"),
    ),
    CatalogEntry(
        "so3_s2xs2", "product-spheres-action",
        "diagonal rotations of S^2(1) x S^2(R); cohomogeneity one",
        expected={
            "variational-completeness": {
                "value": {"probe": True, "eigenfield_tangency": None},
                "provenance": "computed"},
        },
        default_checks=("jacobi-scan", "variational-completeness", "transversal"),
    ),
)


def catalog_list() -> list:
    """The built-in fixtures, in stable order."""
    return list(_ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}; "
                   f"known: {', '.join(e.name for e in _ENTRIES)}")
