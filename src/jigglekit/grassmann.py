"""Linear planes in R^n and the projector metric.

A :class:`Plane` is a linear subspace held as an orthonormal basis (rows).
Distances between planes use the operator norm of the difference of the
orthogonal projectors (``d_proj``).
"""

from __future__ import annotations

import numpy as np

from .errors import AmbientMismatch, RankDeficient

RANK_REL_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10


class Plane:
    """A k-dimensional linear subspace of R^n with an orthonormal basis."""

    __slots__ = ("ambient_dim", "basis", "_complement", "_projector")

    def __init__(self, basis: np.ndarray):
        b = np.atleast_2d(np.asarray(basis, dtype=float))
        if b.size == 0:
            raise RankDeficient("a plane needs at least one basis vector")
        gram = b @ b.T
        if not np.allclose(gram, np.eye(b.shape[0]), atol=ORTHONORMAL_TOL):
            raise RankDeficient("basis rows are not orthonormal; use plane_from_spanning")
        self.ambient_dim = b.shape[1]
        self.basis = b
        self.basis.setflags(write=False)
        self._complement = None
        self._projector = None

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def projector(self) -> np.ndarray:
        if self._projector is None:
            self._projector = self.basis.T @ self.basis
        return self._projector

    def complement(self) -> np.ndarray:
        """Orthonormal basis (rows) of the orthogonal complement."""
        if self._complement is None:
            n, k = self.ambient_dim, self.rank
            if k == n:
                self._complement = np.zeros((0, n))
            else:
                # full QR of basis^T: trailing columns span the complement
                q, _ = np.linalg.qr(self.basis.T, mode="complete")
                self._complement = q[:, k:].T.copy()
            self._complement.setflags(write=False)
        return self._complement

    def __repr__(self) -> str:
        return f"Plane(n={self.ambient_dim}, k={self.rank})"


def plane_from_spanning(vectors, tol: float = RANK_REL_TOL) -> Plane:
    """Orthonormalize a spanning set into a Plane.

    Raises RankDeficient when the vectors are dependent above ``tol``
    (relative to the largest singular value).
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.size == 0:
        raise RankDeficient("empty spanning set")
    u, s, _ = np.linalg.svd(v.T, full_matrices=False)
    if s[0] == 0.0 or np.min(s) <= tol * s[0]:
        raise RankDeficient(
            f"spanning set is rank deficient (singular values {s.tolist()})"
        )
    return Plane(u[:, : len(s)].T)


class AffineFlat:
    """An affine subspace: base point plus a direction Plane (or a point)."""

    __slots__ = ("base", "direction")

    def __init__(self, base, direction: Plane | None):
        self.base = np.asarray(base, dtype=float)
        self.direction = direction
        if direction is not None and direction.ambient_dim != self.base.shape[0]:
            raise AmbientMismatch("flat base and direction dimensions differ")

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]

    @property
    def dim(self) -> int:
        return 0 if self.direction is None else self.direction.rank


def affine_span(points) -> AffineFlat:
    """Affine span of a point set; a single point gives a 0-flat."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = pts[0]
    if pts.shape[0] == 1:
        return AffineFlat(base, None)
    dirs = pts[1:] - base
    u, s, _ = np.linalg.svd(dirs.T, full_matrices=False)
    keep = s > RANK_REL_TOL * s[0] if s[0] > 0 else s > 0
    if not np.any(keep):
        return AffineFlat(base, None)
    return AffineFlat(base, Plane(u[:, keep].T))


def _check_ambient(v: Plane, w: Plane):
    if v.ambient_dim != w.ambient_dim:
        raise AmbientMismatch(
            f"planes live in R^{v.ambient_dim} and R^{w.ambient_dim}"
        )


def is_transverse_planes(v: Plane, w: Plane, tol: float = RANK_REL_TOL) -> bool:
    """dim(V + W) equals min(v + w, n), decided by the rank of stacked bases."""
    _check_ambient(v, w)
    n = v.ambient_dim
    target = min(v.rank + w.rank, n)
    stacked = np.vstack([v.basis, w.basis])
    s = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return rank == target


def d_proj(v: Plane, w: Plane) -> float:
    """Operator norm of the difference of the orthogonal projectors."""
    _check_ambient(v, w)
    if v.rank != w.rank:
        raise AmbientMismatch(
            f"d_proj compares planes of equal rank, got {v.rank} and {w.rank}"
        )
    diff = v.projector - w.projector
    return float(np.linalg.norm(diff, 2))


def project_along(v: Plane, points) -> np.ndarray:
    """Quotient projection R^n -> R^n/V written in an orthonormal basis of
    the orthogonal complement, so it is an isometry on directions normal
    to V."""
    pts = np.asarray(points, dtype=float)
    comp = v.complement()
    return pts @ comp.T


def point_flat_distance(p, flat: AffineFlat) -> float:
    """Euclidean distance from a point to an affine flat."""
    rel = np.asarray(p, dtype=float) - flat.base
    if flat.direction is None:
        return float(np.linalg.norm(rel))
    proj = flat.direction.basis.T @ (flat.direction.basis @ rel)
    return float(np.linalg.norm(rel - proj))


def _flat_distances(points: np.ndarray, bases: np.ndarray,
                    dirs: np.ndarray | None) -> np.ndarray:
    """(S, T) distances from S points to T affine flats of one dimension.

    ``points`` is (S, n), ``bases`` (T, n) and ``dirs`` the (T, k, n)
    orthonormal direction bases, or None for points.  Entry (i, j) has the
    bits of :func:`point_flat_distance` of point i and flat j: each pair
    goes through the products of that call, as the stacked
    ``B @ rel[..., None]``, and its norm is ``sqrt(vecdot)``.  The plain
    2-D product ``rel @ B.T`` would round differently in the last bits.
    """
    rel = points[:, None, :] - bases
    if dirs is not None:
        rel = rel - (np.swapaxes(dirs, 1, 2) @ (dirs @ rel[..., None]))[..., 0]
    return np.sqrt(np.vecdot(rel, rel))
