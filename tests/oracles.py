"""Closed forms that only tests read, kept as references for the package.

- ``transport`` is parallel transport along a model geodesic, the oracle of
  ``ModelManifold.parallel_frames``;
- ``distance`` is the model's geodesic distance, the oracle of ``exp`` and
  ``log``;
- ``full_space`` is a whole algebra as a subspace, the oracle of
  ``centralizer_in``.

Each takes the package object as its first argument and uses only its
public attributes.
"""

import numpy as np

from polaris import linalg
from polaris.liealg import Subspace


def transport(manifold, p, v, t, x):
    """Parallel transport of a tangent vector or an (..., D) stack ``x`` along
    s -> exp_p(s v) from 0 to ``t``, one factor of ``manifold`` at a time."""
    p = np.asarray(p, float)
    v = np.asarray(v, float)
    x = np.asarray(x, float)
    return np.concatenate([_sphere_transport(p[s], v[s], r, t, x[..., s]) if r else x[..., s]
                           for s, r in manifold.factors], axis=-1)


def _sphere_transport(p, v, radius, t, x):
    """Transport along one sphere factor: rotate the (p, v) plane by the
    geodesic's angle and fix its orthogonal complement."""
    s = np.linalg.norm(v)
    if s < 1e-15:
        return x
    ang = s * t / radius
    phat = p / radius
    vhat = v / s
    a = (x @ phat)[..., None]
    b = (x @ vhat)[..., None]
    rest = x - a * phat - b * vhat
    phat_t = np.cos(ang) * phat + np.sin(ang) * vhat
    vhat_t = -np.sin(ang) * phat + np.cos(ang) * vhat
    return rest + a * phat_t + b * vhat_t


def distance(manifold, p, q) -> float:
    """Geodesic distance on ``manifold``: the hypot of the factor distances."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    return float(np.hypot.reduce([
        r * np.arccos(np.clip(np.dot(p[s], q[s]) / r**2, -1.0, 1.0)) if r
        else np.linalg.norm(p[s] - q[s]) for s, r in manifold.factors]))


def full_space(alg) -> Subspace:
    """The whole algebra ``alg`` as an inner-orthonormal subspace."""
    return Subspace(alg.name, linalg.orthonormalize(np.eye(alg.dim), alg.metric_root))
