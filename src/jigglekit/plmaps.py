"""Piecewise-linear and sampled maps on polyhedra.

A :class:`PLMap` is determined by the image of every domain vertex and
extends affinely over each simplex.  A :class:`SampledMap` wraps a black-box
evaluator (optionally with an analytic Jacobian).  Distances between maps are
measured over a common refinement, simplex by simplex: sup-distance for order
zero, sup-distance plus Jacobian operator-norm distance for order one.
"""

from __future__ import annotations

import functools

import numpy as np

from .complexes import (
    SimplicialComplex,
    _carriers,
    _interpolate,
    _orientations,
    _parents,
    _per_distinct,
    _untiled,
    _volumes,
    barycentric_coordinates,
    crystalline_subdivide,
    find_interior_overlap,
    size_groups,
    top_radii,
)
from .errors import DegenerateSimplex, DomainMismatch, QueryNotInComplex
from .transversality import barycentric_lattice

FD_STEP_FACTOR = 1e-6
SAMPLE_DEPTH = 3


class PLMap:
    """A piecewise-linear map |K| -> R^n given by vertex images."""

    def __init__(self, domain: SimplicialComplex, images: np.ndarray):
        self.domain = domain
        self.images = np.array(images, dtype=float)
        self.images.setflags(write=False)
        if self.images.shape[0] != domain.num_vertices:
            raise DomainMismatch("one image point per domain vertex required")
        self.target_dim = self.images.shape[1]
        self._jac_cache: dict[tuple[int, ...], np.ndarray] = {}

    @functools.cached_property
    def _radii(self):
        """``top_radii`` of the image cells, ``(tops, rmin, rmax)``, from one
        pass per map: the embedding check and the engine's budgets share it."""
        return top_radii(self.domain, self.images)

    @classmethod
    def identity(cls, domain: SimplicialComplex) -> "PLMap":
        return cls(domain, domain.vertices)

    def image_coords(self, simplex) -> np.ndarray:
        return self.images[list(simplex)]

    def jacobian(self, simplex) -> np.ndarray:
        """The constant derivative matrix on one simplex (zero off its span)."""
        key = tuple(simplex)
        jac = self._jac_cache.get(key)
        if jac is None:
            dom = self.domain.coords(simplex)
            img = self.image_coords(simplex)
            a = (dom[1:] - dom[0]).T
            y = (img[1:] - img[0]).T
            jac = y @ np.linalg.pinv(a)
            self._jac_cache[key] = jac
        return jac

    def evaluate_batch(self, points, hint=None) -> np.ndarray:
        """Images of the rows of ``points``, trying top simplex ``hint``
        first; the other points are located in one batch."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        located = [None] * len(pts)
        if hint is not None:
            for i, p in enumerate(pts):
                b, defect = barycentric_coordinates(self.domain.coords(hint), p)
                if defect <= 1e-9 and float(np.min(b)) >= -1e-9:
                    located[i] = hint, b
        todo = [i for i, s in enumerate(located) if s is None]
        for i, (s, b, _) in zip(todo, self.domain._locate(pts[todo])):
            located[i] = s, b
        return np.array([b @ self.image_coords(s) for s, b in located])


def _same_complex(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    if a is b:
        return True
    return (a.num_vertices == b.num_vertices
            and a.top_simplices == b.top_simplices
            and np.array_equal(a.vertices, b.vertices))


def _is_native(fmap, complex_: SimplicialComplex) -> bool:
    """A PLMap on the complex itself, whose stored images are exact."""
    return isinstance(fmap, PLMap) and _same_complex(fmap.domain, complex_)


class SampledMap:
    """A map given by a point evaluator, with optional analytic Jacobian.

    The evaluator may be vectorized (accepting an (m, N) array); a plain
    point evaluator is lifted automatically.  Finite differences (central,
    step 1e-6 times the local simplex size) stand in for a missing Jacobian.
    """

    def __init__(self, domain: SimplicialComplex, evaluator, jacobian=None,
                 name: str = ""):
        self.domain = domain
        self.name = name
        self._eval = evaluator
        self._jac = jacobian
        corners = domain.coords(domain.top_simplices[0])
        probes = np.vstack([corners, corners.mean(axis=0)])
        self._vectorized = self._maps_rows(probes)
        self.target_dim = self.evaluate_batch(probes[:1]).shape[1]

    def _maps_rows(self, probes: np.ndarray) -> bool:
        """Whether the evaluator maps a batch of points row by row.

        Decided once, by one batch call against per-point calls on the same
        probes: a point evaluator handed a batch may raise, or may return an
        array of the batch's shape whose values are wrong (it indexes rows
        where it means coordinates).  Per-point calls that raise or return
        another shape mark an evaluator that only takes batches.
        """
        try:
            batch = np.asarray(self._eval(probes), dtype=float)
        except (TypeError, ValueError, IndexError):
            return False
        if batch.ndim != 2 or batch.shape[0] != probes.shape[0]:
            return False
        try:
            rows = np.array([np.atleast_1d(self._eval(p)) for p in probes],
                            dtype=float)
        except (TypeError, ValueError, IndexError):
            return True
        return rows.shape != batch.shape or \
            np.allclose(rows, batch, rtol=1e-9, atol=1e-12)

    def evaluate_batch(self, points, hint=None) -> np.ndarray:
        """Images of the rows of ``points``; ``hint`` is ignored."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._vectorized:
            return np.asarray(self._eval(pts), dtype=float)
        return np.array([np.atleast_1d(self._eval(p)) for p in pts], dtype=float)

    def derivative_at(self, point, hint=None, scale: float = 1.0) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self._jac is not None:
            return np.asarray(self._jac(p), dtype=float)
        return self._differences(p[None], np.array([scale], dtype=float))[0]

    def _differences(self, points: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Central-difference derivatives (P, n, N) at the rows of
        ``points`` (P, N), with step ``FD_STEP_FACTOR * max(scale, 1e-3)``
        per row: the probes of every row go to one ``evaluate_batch`` call,
        and each value has the bits of a call per point."""
        count, dim = points.shape
        h = FD_STEP_FACTOR * np.maximum(scales, 1e-3)
        steps = h[:, None, None] * np.eye(dim)
        probes = np.concatenate([points[:, None] + steps, points[:, None] - steps], axis=1)
        vals = self.evaluate_batch(probes.reshape(-1, dim)).reshape(count, 2 * dim, -1)
        return ((vals[:, :dim] - vals[:, dim:]) / (2.0 * h)[:, None, None]).swapaxes(1, 2)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def linearize(f, complex_: SimplicialComplex, levels: int):
    """Replace f by its piecewise-linear interpolation on the level-``levels``
    crystalline subdivision.

    A PLMap on the complex itself interpolates by the exact support table,
    so the result equals f as a function; any other map is
    evaluated at the child vertices.  Returns ``(map, child_complex,
    subdivision_map)`` with ``map`` a PLMap on ``child_complex``.
    """
    child, smap = crystalline_subdivide(complex_, levels)
    if _is_native(f, complex_):
        images = _interpolate(smap.ids, smap.weights, smap.denominator, f.images)
    else:
        images = f.evaluate_batch(child.vertices)
    return PLMap(child, images), child, smap


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _common_refinement(f, g) -> SimplicialComplex:
    domains = [m.domain for m in (f, g) if m.domain is not None]
    if not domains:
        raise DomainMismatch("neither map carries a domain complex")
    fine = max(domains, key=lambda d: d.num_vertices)
    if len(domains) == 2 and domains[0] is not domains[1]:
        vols = [float(_volumes(d.top_simplices, d.vertices).sum()) for d in domains]
        if abs(vols[0] - vols[1]) > 1e-6 * max(vols[0], vols[1], 1e-300):
            raise DomainMismatch(
                f"domains cover different volume: {vols[0]:.6g} vs {vols[1]:.6g}"
            )
    return fine


def _values(m, own: bool, ids: np.ndarray, b: np.ndarray,
            pts: np.ndarray) -> np.ndarray:
    """m at the lattice points ``pts`` (S, L, N) of one size group, from
    one ``evaluate_batch`` call unless m is a PLMap on the refinement."""
    if own:
        return b @ m.images[ids]
    return m.evaluate_batch(pts.reshape(-1, pts.shape[2])).reshape(pts.shape[:2] + (-1,))


def _jacobians(m, own: bool, ids: np.ndarray, pinv_a: np.ndarray,
               dom: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Derivatives of m on one size group, shape (S, P, n, N): one matrix
    per cell for a PLMap, one per lattice point for a SampledMap, whose
    finite differences take one ``evaluate_batch`` call; a Jacobian the
    user gave is called point by point."""
    if own:
        img = m.images[ids]
        return (np.swapaxes(img[:, 1:] - img[:, :1], 1, 2) @ pinv_a)[:, None]
    if isinstance(m, PLMap):
        located = m.domain._locate(np.array([p.mean(axis=0) for p in pts]))
        return np.array([[m.jacobian(t)] for t, _, _ in located])
    if m._jac is not None:
        return np.array([[m.derivative_at(q) for q in p] for p in pts])
    scales = np.max(np.linalg.norm(dom - dom[:, :1], axis=2), axis=1)
    cells, count, dim = pts.shape
    return m._differences(pts.reshape(-1, dim), np.repeat(scales, count)).reshape(
        cells, count, -1, dim)


def distance(f, g, order: int = 0) -> float:
    """C0 or C1 distance over a common refinement of the two domains.

    Order one returns the per-simplex maximum of (sup-distance + Jacobian
    operator-norm distance), maximized over simplices, per the sup-plus-
    derivative convention.  One :func:`_distances` pass; order zero does
    no C1 work.
    """
    c0, c1 = _distances(f, g, c1=order >= 1)
    return c1 if order >= 1 else c0


def _distances(f, g, c1: bool) -> tuple[float, float]:
    """The C0 distance and, when ``c1``, the C1 distance (else 0.0) from
    one pass over the common refinement.

    The cells are taken one size group at a time: a PLMap on the
    refinement itself is read off its vertex images as stacked arrays, any
    other map is evaluated cell by cell.  The domain edge matrices take one
    pseudo-inverse per distinct matrix (:func:`complexes._per_distinct`).
    """
    fine = _common_refinement(f, g)
    f_own = isinstance(f, PLMap) and f.domain is fine
    g_own = isinstance(g, PLMap) and g.domain is fine
    worst0 = worst1 = 0.0
    for k, _, ids in size_groups(fine.top_simplices):
        dom = fine.vertices[ids]
        b = barycentric_lattice(k, SAMPLE_DEPTH)
        pts = b @ dom
        diff = _values(f, f_own, ids, b, pts) - _values(g, g_own, ids, b, pts)
        val = np.sqrt(np.add.reduce(diff * diff, axis=2)).max(axis=1)
        worst0 = np.maximum(worst0, val.max())
        if c1:
            pinv_a = _per_distinct(lambda e: np.linalg.pinv(np.swapaxes(e, 1, 2)),
                                   dom[:, 1:] - dom[:, :1])
            gap = (_jacobians(f, f_own, ids, pinv_a, dom, pts)
                   - _jacobians(g, g_own, ids, pinv_a, dom, pts))
            worst1 = np.maximum(worst1, (val + np.linalg.svd(gap, compute_uv=False)
                                         .max(axis=(1, 2))).max())
    return float(worst0), float(worst1)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def complex_subdivides(parent: SimplicialComplex, child: SimplicialComplex,
                       tol: float = 1e-9) -> bool:
    """Whether the child's top simplices tile the parent's: every child
    vertex lies within ``tol`` of |parent| (its carrier keeps the parent
    vertices whose coordinate exceeds ``tol``), every cell has a parent
    top, and each parent top's cells sum to its volume to 1e-6 of it."""
    if parent.ambient_dim != child.ambient_dim:
        return False
    try:
        carriers = _carriers(parent, child.vertices, tol, tol)
    except QueryNotInComplex:
        return False
    cells = child.top_simplices
    _, owners = _parents(parent, carriers, cells)
    return bool((owners >= 0).all()) and \
        _untiled(parent, cells, owners, child.vertices, 1e-6) is None


def is_piecewise_embedding(f: PLMap, tol: float = 1e-9) -> bool:
    """Whether f is an embedding of |K|: non-degenerate image simplices, and
    no two distinct simplices whose images meet outside the image of a
    shared face.

    A non-finite image point, a flat image cell, or one with
    rmin <= tol * rmax (one stacked ``top_radii`` pass) fails at once.
    What follows depends on the domain K:

    - **K a PL n-ball in R^n, n = 2 or 3, f into R^n: the degree test.**
      Theorem: if every top keeps its orientation sign under f (or every
      top reverses it) and f is injective on the boundary dK, then f is an
      embedding.  Every local degree is then +1 (or -1), so a generic point
      y has |deg(f, y)| = |wind(f(dK), y)| <= 1 preimages by Jordan-Brouwer,
      while two cells whose images met in their relative interiors would
      give an open set of points with two.  This is the disk/ball case of
      Lipman, "Bijective mappings of meshes with boundary and the degree in
      mesh processing" (SIAM J. Imaging Sci. 7(2), 2014).  So the test is
      one stacked exact sign per top (``_orientations``) against the signs
      of K's own coordinates, then ``find_interior_overlap`` on the closure
      of dK only: O(cells) plus the boundary's pairs.  Whether K is a ball
      is decided once per complex (``SimplicialComplex._ball``).
    - **Any other input: the pairwise test.**  A complex that is not a
      ball (an annulus, two triangles sharing one vertex, a surface in R^3,
      mixed dimensions), an image of another dimension, or n > 3 runs
      ``find_interior_overlap`` on all simplices.

    The signs are exact, but the boundary test keeps ``tol``, and the two
    tests treat an interior overlap of size ``tol`` differently, so they
    may disagree on maps within about 1e-9 (relative) of losing injectivity.
    ``_embedding_failure`` says why a map fails.
    """
    return _embedding_failure(f, tol) is None


def _embedding_failure(f: PLMap, tol: float = 1e-9) -> str | None:
    """Why f is not a piecewise embedding (see :func:`is_piecewise_embedding`),
    or None when it is one: the first non-finite image point, flat image
    cell, flipped top or overlapping pair, named by domain vertex ids."""
    bad = np.flatnonzero(~np.isfinite(f.images).all(axis=1))
    if bad.size:
        return f"the image of vertex {bad[0]} is not finite"
    try:
        tops, rmin, rmax = f._radii
    except DegenerateSimplex as exc:
        return f"an image cell is flat: {exc}"
    flat = np.flatnonzero(rmin <= tol * rmax)
    if flat.size:
        t = flat[0]
        return (f"the image of simplex {tops[t]} is flat "
                f"(rmin={rmin[t]:.3e}, rmax={rmax[t]:.3e})")
    ball = f.domain._ball
    if ball is None or f.target_dim != f.domain.ambient_dim:
        pair = find_interior_overlap(f.domain.all_simplices(), f.images, tol)
        what = "simplices"
    else:
        relative = _orientations(f.images[ball.tops]) * ball.signs
        kept = 1 if (relative > 0).sum() >= (relative < 0).sum() else -1
        flipped = np.flatnonzero(relative != kept)
        if flipped.size:
            return f"top {tuple(ball.tops[flipped[0]].tolist())} flipped its orientation"
        pair = find_interior_overlap(ball.boundary, f.images, tol)
        what = "boundary simplices"
    if pair is not None:
        return f"the images of {what} {pair[0]} and {pair[1]} overlap"
    return None
