"""Piecewise-linear and sampled maps on polyhedra.

A :class:`PLMap` is determined by the image of every domain vertex and
extends affinely over each simplex.  A :class:`SampledMap` wraps a black-box
evaluator (optionally with an analytic Jacobian).  Distances between maps are
measured over a common refinement, simplex by simplex: sup-distance for order
zero, sup-distance plus Jacobian operator-norm distance for order one.
"""

from __future__ import annotations

import numpy as np

from .complexes import (
    SimplicialComplex,
    barycentric_coordinates,
    crystalline_subdivide,
    find_interior_overlap,
    shape_stats,
    simplex_volume,
)
from .errors import DegenerateSimplex, DomainMismatch
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

    def evaluate(self, point, hint=None):
        p = np.asarray(point, dtype=float)
        simplex = None
        if hint is not None:
            b, defect = barycentric_coordinates(self.domain.coords(hint), p)
            if defect <= 1e-9 and float(np.min(b)) >= -1e-9:
                simplex = hint
        if simplex is None:
            simplex = self.domain.containing_top_simplex(p)
        b, _ = barycentric_coordinates(self.domain.coords(simplex), p)
        return b @ self.image_coords(simplex)

    def evaluate_batch(self, points, hint=None) -> np.ndarray:
        """Images of the rows of ``points``, trying top simplex ``hint`` first."""
        return np.array([self.evaluate(p, hint) for p in np.atleast_2d(points)])

    def derivative_at(self, point, hint=None) -> np.ndarray:
        simplex = hint if hint is not None else self.domain.containing_top_simplex(point)
        return self.jacobian(simplex)


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

    def evaluate(self, point, hint=None):
        return self.evaluate_batch(np.asarray(point)[None, :])[0]

    def derivative_at(self, point, hint=None, scale: float = 1.0) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self._jac is not None:
            return np.asarray(self._jac(p), dtype=float)
        h = FD_STEP_FACTOR * max(scale, 1e-3)
        n = p.shape[0]
        probes = np.vstack([p + h * np.eye(n), p - h * np.eye(n)])
        vals = self.evaluate_batch(probes)
        return ((vals[:n] - vals[n:]) / (2.0 * h)).T


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def linearize(f, complex_: SimplicialComplex, levels: int):
    """Replace f by its piecewise-linear interpolation on the level-``levels``
    crystalline subdivision.

    A PLMap on the complex itself interpolates by the exact rational vertex
    supports, so the result equals f as a function; any other map is
    evaluated at the child vertices.  Returns ``(map, child_complex,
    subdivision_map)`` with ``map`` a PLMap on ``child_complex``.
    """
    child, smap = crystalline_subdivide(complex_, levels)
    if _is_native(f, complex_):
        images = np.zeros((child.num_vertices, f.target_dim))
        for vid in range(child.num_vertices):
            acc = np.zeros(f.target_dim)
            for gid, frac in smap.vertex_support[vid]:
                acc = acc + float(frac) * f.images[gid]
            images[vid] = acc
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
        vols = [sum(simplex_volume(d.coords(s)) for s in d.top_simplices)
                for d in domains]
        if abs(vols[0] - vols[1]) > 1e-6 * max(vols[0], vols[1], 1e-300):
            raise DomainMismatch(
                f"domains cover different volume: {vols[0]:.6g} vs {vols[1]:.6g}"
            )
    return fine


def _eval_on(m, pts: np.ndarray, simplex, own: bool) -> np.ndarray:
    if own:
        b = barycentric_lattice(len(simplex), SAMPLE_DEPTH)
        return b @ m.image_coords(simplex)
    return m.evaluate_batch(pts)


def _derivative_on(m, pts: np.ndarray, simplex, own: bool, scale: float):
    if isinstance(m, PLMap):
        if own:
            return [m.jacobian(simplex)]
        center = pts.mean(axis=0)
        parent = m.domain.containing_top_simplex(center)
        return [m.jacobian(parent)]
    return [m.derivative_at(p, scale=scale) for p in pts]


def distance(f, g, order: int = 0) -> float:
    """C0 or C1 distance over a common refinement of the two domains.

    Order one returns the per-simplex maximum of (sup-distance + Jacobian
    operator-norm distance), maximized over simplices, per the sup-plus-
    derivative convention.
    """
    fine = _common_refinement(f, g)
    worst = 0.0
    for simplex in fine.top_simplices:
        dom = fine.coords(simplex)
        b = barycentric_lattice(len(simplex), SAMPLE_DEPTH)
        pts = b @ dom
        f_own = isinstance(f, PLMap) and f.domain is fine
        g_own = isinstance(g, PLMap) and g.domain is fine
        fv = _eval_on(f, pts, simplex, f_own)
        gv = _eval_on(g, pts, simplex, g_own)
        d0 = float(np.max(np.linalg.norm(fv - gv, axis=1)))
        val = d0
        if order >= 1:
            scale = float(np.max(np.linalg.norm(dom - dom[0], axis=1)))
            fj = _derivative_on(f, pts, simplex, f_own, scale)
            gj = _derivative_on(g, pts, simplex, g_own, scale)
            if len(fj) == 1 and len(gj) > 1:
                fj = fj * len(gj)
            if len(gj) == 1 and len(fj) > 1:
                gj = gj * len(fj)
            d1 = max(float(np.linalg.norm(a - c, 2)) for a, c in zip(fj, gj))
            val = d0 + d1
        worst = max(worst, val)
    return worst


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def complex_subdivides(parent: SimplicialComplex, child: SimplicialComplex,
                       tol: float = 1e-9) -> bool:
    """Geometric carrier check: child simplices tile parent simplices."""
    if parent.ambient_dim != child.ambient_dim:
        return False
    parent_vols = {s: simplex_volume(parent.coords(s)) for s in parent.top_simplices}
    sums = {s: 0.0 for s in parent.top_simplices}
    for cell in child.top_simplices:
        pts = child.coords(cell)
        center = pts.mean(axis=0)
        carrier = None
        for s in parent.top_simplices:
            b, defect = barycentric_coordinates(parent.coords(s), center)
            if defect <= tol and float(np.min(b)) >= -tol:
                contained = True
                for p in pts:
                    bb, dd = barycentric_coordinates(parent.coords(s), p)
                    if dd > tol or float(np.min(bb)) < -1e-7:
                        contained = False
                        break
                if contained:
                    carrier = s
                    break
        if carrier is None:
            return False
        sums[carrier] += simplex_volume(pts)
    for s, vol in parent_vols.items():
        if vol > 0 and abs(sums[s] - vol) > 1e-6 * vol:
            return False
    return True


def is_piecewise_embedding(f: PLMap, tol: float = 1e-9) -> bool:
    """Non-degenerate image simplices plus global injectivity on |K|.

    Injectivity is checked pairwise: the images of two simplices may only
    meet along the image of their shared face, i.e. no two distinct
    simplices have intersecting relative interiors in the image.
    """
    for s in f.domain.top_simplices:
        if len(s) < 2:
            continue
        img = f.image_coords(s)
        try:
            stats = shape_stats(img)
        except DegenerateSimplex:
            return False
        if stats.rmin <= tol * stats.rmax:
            return False
    overlap = find_interior_overlap(f.domain.all_simplices(), f.images, tol)
    return overlap is None
