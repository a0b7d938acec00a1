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
LOST_DIRECTION = 1e-12      # a projected direction this short is lost in the quotient
SURELY_TRANSVERSE = 1e4     # a margin this many times max(tol, 1e-8) passes the rank test
NOT_ORTHONORMAL = "basis rows are not orthonormal; use plane_from_spanning"


def _orthonormal(bases: np.ndarray) -> np.ndarray:
    """Whether each item of a (..., k, n) stack has orthonormal rows: the
    rule of :class:`Plane`, ``B @ B.T`` within ``ORTHONORMAL_TOL`` of the
    identity by np.allclose's own rule without its overhead, so NaN and inf
    fail."""
    eye = np.eye(bases.shape[-2])
    gram = bases @ np.swapaxes(bases, -1, -2)
    return (np.abs(gram - eye) <= ORTHONORMAL_TOL + 1e-5 * eye).all(axis=(-2, -1))


def _stack(arrays: list, c_order: bool) -> np.ndarray:
    """The 2-D ``arrays`` as one (S, a, b) stack whose items keep their
    memory order, C or Fortran: a product rounds by the order of its
    operands, so a stacked product must see each one as its own call does."""
    if c_order:
        return np.array(arrays)
    return np.array([a.T for a in arrays]).swapaxes(1, 2)


class Plane:
    """A k-dimensional linear subspace of R^n with an orthonormal basis."""

    __slots__ = ("ambient_dim", "basis", "_complement", "_projector")

    def __init__(self, basis: np.ndarray):
        b = np.atleast_2d(np.asarray(basis, dtype=float))
        if b.size == 0:
            raise RankDeficient("a plane needs at least one basis vector")
        if not _orthonormal(b):
            raise RankDeficient(NOT_ORTHONORMAL)
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


def _rank(s: np.ndarray, tol: float = RANK_REL_TOL) -> np.ndarray:
    """The relative rank rule, per row of (S, r) singular values in
    descending order: how many exceed ``tol`` times the largest.  A zero
    matrix has rank 0."""
    return (s > tol * s[:, :1]).sum(1)


def _row_spaces(vectors: np.ndarray, tol: float = RANK_REL_TOL):
    """Orthonormal bases (S, min(r, n), n) and :func:`_rank` of an (S, r, n)
    stack of finite spanning sets: the left singular vectors as rows, so the
    first ``rank`` rows span the set, from one stacked SVD that gives each
    set the bits of its own call."""
    u, s, _ = np.linalg.svd(vectors.swapaxes(1, 2), full_matrices=False)
    return u.swapaxes(1, 2), _rank(s, tol)


def plane_from_spanning(vectors, tol: float = RANK_REL_TOL) -> Plane:
    """Orthonormalize a spanning set into a Plane.

    Raises RankDeficient when the vectors are dependent above ``tol``
    (relative to the largest singular value).
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.size == 0:
        raise RankDeficient("empty spanning set")
    bases, ranks = _row_spaces(v[None], tol)
    if ranks[0] < bases.shape[1]:
        raise RankDeficient(
            f"spanning set is rank deficient (rank {ranks[0]} of {bases.shape[1]})"
        )
    return Plane(bases[0])


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
    bases, ranks = _row_spaces((pts[1:] - base)[None])
    if ranks[0] == 0:
        return AffineFlat(base, None)
    return AffineFlat(base, Plane(bases[0, :ranks[0]]))


def _transverse(bases: np.ndarray, v, tol: float = RANK_REL_TOL,
                margins: bool = False):
    """Whether each plane W of an (S, d, n) stack of orthonormal bases has
    dim(W + V) = min(d + k, n), by the :func:`_rank` of W's basis stacked
    over V's.  ``v`` is one :class:`Plane` for every row, or one per row:
    a sequence of S planes of one rank or an (S, k, n) stack of their
    orthonormal bases.  With ``margins``, also sigma_min of W's basis with
    its V component removed: the sine of the smallest principal angle, a
    transverse face's eps margin.

    The SVDs run stacked, each matrix with the bits of a stack of one.  The
    rejection ``b - (b @ V.T) @ V`` is one stacked product, each item on
    its row as it lies in ``bases`` and on its V basis in that basis's own
    memory order, which gives every row the bits of its own 2-D product: a
    copy of either operand into another order may round differently in the
    last bits.  So an (S, k, n) stack must hold each basis in the order of
    its plane's array, and a sequence of planes takes one product per
    order (:func:`_stack`).  Rank-1 bases round alike in either order.

    With ``margins`` and d + k <= n, a row whose margin sigma exceeds
    ``SURELY_TRANSVERSE * max(tol, 1e-8)`` skips its rank SVD, as it
    passes for sure: for orthonormal W and V the stacked bases have
    singular values sqrt(1 +- cos theta_i) and ones, so the smallest is
    sqrt(1 - cos theta_min) >= sin(theta_min) / sqrt(2) = sigma / sqrt(2)
    and the largest at most sqrt(2).  A basis off orthonormal by
    ``Plane``'s 1e-10 per entry moves those squares by about 1e-9, so the
    smallest stays above 6e-5 where sigma > 1e-4, four orders of magnitude
    over the rank bar tol * sqrt(2).  Every verdict is the rank test's."""
    s, d, n = bases.shape
    if isinstance(v, Plane):
        rows = v.basis
    elif isinstance(v, np.ndarray):
        rows = v
    else:
        each = [p.basis for p in v]
        rows = np.array(each)
    k = rows.shape[-2]
    if n != rows.shape[-1]:
        raise AmbientMismatch(f"planes live in R^{n} and R^{rows.shape[-1]}")
    test = np.ones(s, dtype=bool)
    if margins:
        if isinstance(v, (Plane, np.ndarray)):
            inside = (bases @ np.swapaxes(rows, -1, -2)) @ rows
        else:
            inside = np.empty((s, d, n))
            c_order = np.array([w.flags.c_contiguous for w in each], dtype=bool)
            for c in np.unique(c_order).tolist():
                sel = np.flatnonzero(c_order == c)
                w = _stack([each[i] for i in sel.tolist()], c)
                inside[sel] = (bases[sel] @ w.swapaxes(1, 2)) @ w
        sigma = np.linalg.svd(bases - inside, compute_uv=False)[:, -1]
        if d + k <= n:
            test = ~(sigma > SURELY_TRANSVERSE * max(tol, 1e-8))
    sel = np.flatnonzero(test)
    transverse = ~test
    if len(sel):
        both = np.empty((len(sel), d + k, n))
        both[:, :d] = bases[sel]
        both[:, d:] = rows if rows.ndim == 2 else rows[sel]
        transverse[sel] = _rank(np.linalg.svd(both, compute_uv=False), tol) == min(d + k, n)
    return (transverse, sigma) if margins else transverse


def is_transverse_planes(v: Plane, w: Plane, tol: float = RANK_REL_TOL) -> bool:
    """dim(V + W) equals min(v + w, n), decided by the rank of stacked bases."""
    return bool(_transverse(v.basis[None], w, tol)[0])


def d_proj(v: Plane, w: Plane) -> float:
    """Operator norm of the difference of the orthogonal projectors."""
    if v.ambient_dim != w.ambient_dim:
        raise AmbientMismatch(
            f"planes live in R^{v.ambient_dim} and R^{w.ambient_dim}"
        )
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


def _project_flat(v: Plane | None, flat: AffineFlat,
                  floor: float = LOST_DIRECTION) -> AffineFlat:
    """The image of ``flat`` in the quotient by V (``flat`` itself for
    None), written as :func:`project_along` writes points.  A projected
    direction of norm at most ``floor`` is dropped as lost in V."""
    if v is None:
        return flat
    base = project_along(v, flat.base)
    if flat.direction is None:
        return AffineFlat(base, None)
    dirs = project_along(v, flat.direction.basis)
    keep = dirs[np.linalg.norm(dirs, axis=1) > floor]
    if len(keep) == 0:
        return AffineFlat(base, None)
    return AffineFlat(base, plane_from_spanning(keep))


def point_flat_distance(p, flat: AffineFlat) -> float:
    """Euclidean distance from a point to an affine flat."""
    dirs = None if flat.direction is None else flat.direction.basis[None]
    return float(_flat_distances(np.asarray(p, dtype=float)[None],
                                 flat.base[None], dirs)[0, 0])


def _flat_distances(points: np.ndarray, bases: np.ndarray,
                    dirs: np.ndarray | None) -> np.ndarray:
    """(S, T) distances from S points to T affine flats of one dimension.

    ``points`` is (S, n), ``bases`` (T, n) and ``dirs`` the (T, k, n)
    orthonormal direction bases, or None for points.  Each pair goes
    through its own stacked products ``B @ rel[..., None]`` and its norm is
    ``sqrt(vecdot)``, so a pair gets the same bits in a stack of any size;
    :func:`point_flat_distance` is a stack of one.  The plain 2-D product
    ``rel @ B.T`` would round differently in the last bits.
    """
    return _rejection_norms(points[:, None, :] - bases, dirs)


def _rejection_norms(rel: np.ndarray, dirs: np.ndarray | None) -> np.ndarray:
    """Norms of the offsets ``rel`` (..., n) with their components along
    the orthonormal rows of ``dirs`` (..., k, n) removed (None: nothing to
    remove), each through its own stacked products; the one home of the
    arithmetic of :func:`_flat_distances`, which pairs every point with
    every flat, for callers that pair them row by row."""
    if dirs is not None:
        rel = rel - (np.swapaxes(dirs, -1, -2) @ (dirs @ rel[..., None]))[..., 0]
    return np.sqrt(np.vecdot(rel, rel))
