"""Ordered simplicial complexes in R^N and their subdivisions.

Vertices carry a global order (their index into the vertex table) and every
simplex is stored as a strictly increasing tuple of vertex ids.  Complexes are
face closed: storing a top simplex stores all of its faces.

The two subdivision operators, crystalline and barycentric, both return the
child complex together with a :class:`SubdivisionMap`, an integer table of
exact barycentric weights for every child vertex.  Exactness is what makes
subdivision well defined on shared faces: a child vertex produced from two
different parent simplices gets the same table row and therefore the same
id and the same floating point coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import (
    AmbientMismatch,
    DegenerateSimplex,
    DomainMismatch,
    FaceIntersectionViolation,
    PreconditionViolated,
    QueryNotInComplex,
)

DEGENERACY_REL_TOL = 1e-12
_INTERIOR_TOL = 1e-9
# point location: the prefilter's margin over its bounds, and the
# (point, top) pairs it takes per pass
_LOCATE_SLACK = 1e-3
_LOCATE_BLOCK = 65536
# |float det - det| of an n x n edge matrix, n <= 3, stays below this times
# the larger Hadamard product of its row and of its column norms
_ORIENT_ERR = 2.0 ** -40


# ---------------------------------------------------------------------------
# basic simplex geometry
# ---------------------------------------------------------------------------

def simplex_volume(coords: np.ndarray) -> float:
    """Unsigned m-volume of the simplex spanned by the rows of ``coords``:
    a stack of one of :func:`_volumes`."""
    pts = np.asarray(coords, dtype=float)
    return float(_volumes([range(len(pts))], pts)[0])


def _volumes(simplices, coords: np.ndarray) -> np.ndarray:
    """Unsigned m-volume of each simplex placed at ``coords``: one stacked
    pass per simplex size."""
    vol = np.zeros(len(simplices))
    for k, rows, ids in size_groups(simplices):
        edges = coords[ids[:, 1:]] - coords[ids[:, :1]]
        if k - 1 == coords.shape[1]:
            # |det(edges)| directly: the Gram determinant squares the condition
            # number and loses half the digits of a thin simplex's volume.
            vol[rows] = np.abs(np.linalg.det(edges))
        elif k > 1:
            vol[rows] = np.sqrt(np.maximum(np.linalg.det(edges @ edges.swapaxes(1, 2)), 0.0))
        for i in range(2, k):
            vol[rows] /= i
    return vol


def _orientations(stack) -> np.ndarray:
    """Exact orientation signs (+1, -1 or 0) of an (S, n + 1, n) stack of
    full-dimensional simplices: the signs of det(p_1 - p_0, ..., p_n - p_0).

    One stacked float determinant.  Its sign is taken only where |det|
    exceeds ``_ORIENT_ERR`` times the Hadamard bound of the rounded edge
    matrix (the product of its row norms or of its column norms, the larger
    one); the static-filter idea of Shewchuk, "Adaptive precision
    floating-point arithmetic and fast robust geometric predicates" (DCG 18,
    1997).  For n <= 3 the rounding of the edges, LAPACK's LU with partial
    pivoting (column-scale invariant, growth at most 2**(n-1)) and numpy's
    sign * exp(logdet) stay orders of magnitude inside that bound.  Every
    other simplex gets its determinant in ``Fraction``s (the coordinates
    must be finite): floats are exact rationals, so that sign is a proof.
    """
    pts = np.asarray(stack, dtype=float)
    edges = pts[:, 1:] - pts[:, :1]
    det = np.linalg.det(edges)
    hadamard = np.maximum(np.linalg.norm(edges, axis=2).prod(axis=1),
                          np.linalg.norm(edges, axis=1).prod(axis=1))
    signs = np.sign(det).astype(np.intp)
    for s in np.flatnonzero(~(np.abs(det) > _ORIENT_ERR * hadamard)):
        signs[s] = _exact_orientation(pts[s])
    return signs


def _exact_orientation(pts: np.ndarray) -> int:
    """The sign of one simplex's orientation determinant, in ``Fraction``s."""
    p = [[Fraction(x) for x in row] for row in pts.tolist()]
    det = _fraction_det([[a - b for a, b in zip(row, p[0])] for row in p[1:]])
    return (det > 0) - (det < 0)


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Laplace expansion along the first row (n <= 3 here)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _fraction_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def point_to_affine_span(point: np.ndarray, coords: np.ndarray) -> float:
    """Distance from ``point`` to the affine span of the rows of ``coords``."""
    return float(_span_distances(np.asarray(point, dtype=float)[None],
                                 np.asarray(coords, dtype=float))[0])


def _span_distances(points: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distances from each row of an (S, N) stack of points to an affine
    span: one span for all points, given as its (m, N) rows, or one per
    point, given as an (S, m, N) stack.

    A QR of each span's directions, then the stacked products
    ``q @ (q.T @ rel[..., None])`` and ``sqrt(vecdot)`` per point, so a
    point gets the same bits alone as in a stack of any size.
    """
    rel = points - coords[..., 0, :]
    if coords.shape[-2] > 1:
        dirs = coords[..., 1:, :] - coords[..., :1, :]
        q, _ = np.linalg.qr(dirs.swapaxes(-1, -2), mode="reduced")
        rel = rel - (q @ (q.swapaxes(-1, -2) @ rel[..., None]))[..., 0]
    return np.sqrt(np.vecdot(rel, rel))


def cell_radii(stack) -> tuple[np.ndarray, np.ndarray]:
    """rmin and rmax of every simplex in a stack: rmin, the smallest
    distance from a vertex to the affine span of its opposite facet (the
    smallest altitude), and rmax, the longest edge.

    ``stack`` has shape (S, k, N): S simplices of k >= 2 vertices in R^N.
    One stacked pass per vertex: rmax takes the norm of each edge
    difference as ``np.linalg.norm`` of a vector does (``vecdot``), and
    rmin is the :func:`_span_distances` of each vertex to its opposite
    facet.  So a simplex gets the same bits alone or in a stack of any size.
    """
    pts = np.asarray(stack, dtype=float)
    k = pts.shape[1]
    i, j = np.triu_indices(k, 1)
    d = pts[:, i] - pts[:, j]
    rmax = np.sqrt(np.vecdot(d, d)).max(axis=1)
    rmin = np.full(len(pts), np.inf)
    for v in range(k):
        others = [u for u in range(k) if u != v]
        rmin = np.minimum(rmin, _span_distances(pts[:, v], pts[:, others]))
    return rmin, rmax


def _first_flat(rmin: np.ndarray, rmax: np.ndarray, simplices=None) -> None:
    """Raise :class:`DegenerateSimplex` for the first flat simplex, named by
    its vertex ids when ``simplices`` is given."""
    flat = np.flatnonzero(~(rmin > DEGENERACY_REL_TOL * rmax) | (rmax == 0.0))
    if flat.size:
        t = flat[0]
        name = "" if simplices is None else f" {simplices[t]}"
        raise DegenerateSimplex(
            f"simplex{name} is degenerate (rmin={rmin[t]:.3e}, rmax={rmax[t]:.3e})"
        )


def _lam(stack: np.ndarray) -> np.ndarray:
    """The coefficient amplification factor lam of each simplex in a stack:
    the largest ``max_i |lambda_i|`` over coefficient vectors lambda with
    ``|sum_i lambda_i (v_i - v_0)| = 1``, which for a non-degenerate
    simplex is the largest row norm of the pseudo-inverse of its edge
    matrix."""
    edges = np.swapaxes(stack[:, 1:] - stack[:, :1], 1, 2)  # S x N x m
    return np.linalg.norm(np.linalg.pinv(edges), axis=2).max(axis=1)


@dataclass(frozen=True)
class ShapeStats:
    """Shape numbers of a single simplex: rmin and rmax as in
    :func:`cell_radii`, lam as in :func:`_lam`."""

    rmin: float
    rmax: float
    lam: float


def shape_stats(coords: np.ndarray) -> ShapeStats:
    """:class:`ShapeStats` of a simplex of dimension >= 1: a stack of one
    of :func:`cell_radii` and :func:`_lam`."""
    pts = np.asarray(coords, dtype=float)[None]
    if pts.shape[1] < 2:
        raise DegenerateSimplex("shape_stats needs a simplex of dimension >= 1")
    rmin, rmax = cell_radii(pts)
    _first_flat(rmin, rmax)
    return ShapeStats(rmin=float(rmin[0]), rmax=float(rmax[0]),
                      lam=float(_lam(pts)[0]))


def size_groups(simplices):
    """The simplices grouped by vertex count, in order of first appearance.

    Yields ``(k, rows, ids)``: the positions ``rows`` in ``simplices`` of
    the simplices with k vertices, and their vertex ids as an (S, k) array,
    ready to gather a coordinate stack as ``coords[ids]``.
    """
    sims = list(simplices)
    sizes = np.fromiter(map(len, sims), dtype=np.intp, count=len(sims))
    for k in dict.fromkeys(sizes.tolist()):
        rows = np.flatnonzero(sizes == k)
        yield k, rows, np.array([sims[r] for r in rows], dtype=np.intp)


def top_radii(complex_: SimplicialComplex, coords: np.ndarray):
    """rmin and rmax of each top simplex of at least two vertices, placed at
    ``coords`` (the complex's own vertices or a map's images).

    One :func:`cell_radii` pass per simplex size.  Returns ``(tops, rmin,
    rmax)`` with the arrays aligned to ``tops`` (in ``top_simplices``
    order); raises :class:`DegenerateSimplex` for the first flat one.
    """
    tops = [t for t in complex_.top_simplices if len(t) >= 2]
    rmin, rmax = np.empty(len(tops)), np.empty(len(tops))
    for _, rows, ids in size_groups(tops):
        rmin[rows], rmax[rows] = cell_radii(coords[ids])
    _first_flat(rmin, rmax, tops)
    return tops, rmin, rmax


# ---------------------------------------------------------------------------
# the complex itself
# ---------------------------------------------------------------------------

_NO_IDS = np.zeros(0, dtype=np.int64)


@cache
def _combinations(k: int, r: int) -> np.ndarray:
    """The r-subsets of range(k), as a read-only (C, r) array in
    ``itertools.combinations`` order."""
    table = np.array(list(itertools.combinations(range(k), r)), dtype=np.intp).reshape(-1, r)
    table.setflags(write=False)
    return table


def _unique_rows(rows: np.ndarray):
    """The distinct rows of a 2-D array: ``(first, inverse, counts)``, what
    ``np.unique(words, axis=0, return_index=True, return_inverse=True,
    return_counts=True)`` returns for ``words``, the rows as int64 words.
    Integer and bool rows give their values; float64 rows give their bytes,
    so -0.0 and 0.0 stay apart, and so does each NaN payload.  The rows
    order lexicographically by their words, and ``first`` holds the first
    appearance of each.

    This is the one row dedupe.  Each row becomes one mixed-radix int64
    key (each word less its column's least, a digit in base the column's
    spread) with the row's index in the low bits, where that fits, and the
    keys take one sort, which orders the rows as a stable sort would.
    Rows whose keys would not fit (float rows, as a rule) take one stable
    lexsort of their columns."""
    rows = np.asarray(rows)
    count = len(rows)
    if rows.dtype.kind == "f":
        rows = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    cols = np.ascontiguousarray(rows.T, dtype=np.int64)   # a row per column: fast scans
    head = np.ones(count, dtype=bool)
    bits = count.bit_length()
    key = None
    if count:
        low = cols.min(axis=1).tolist()
        spread = [h - lo + 1 for lo, h in zip(low, cols.max(axis=1).tolist())]
        if math.prod(spread) << bits < 2 ** 63:
            key = np.zeros(count, dtype=np.int64)
            for col, lo, base in zip(cols, low, spread):
                key = key * base + (col - lo)
    if key is not None:
        ranked = np.sort(key << bits | np.arange(count))
        order = ranked & ((1 << bits) - 1)
        ranked >>= bits
        head[1:] = ranked[1:] != ranked[:-1]
    else:
        order = np.lexsort(cols[::-1])
        head[1:] = False
        for col in cols:
            ranked = col[order]
            head[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(head)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(head, dtype=np.intp) - 1
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1:] = count - starts[-1:]
    return order[starts], inverse, counts


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an int array, by one sort (numpy's
    hashed ``np.unique`` is many times slower on these arrays)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _per_distinct(kernel, stack: np.ndarray) -> np.ndarray:
    """``kernel(stack)`` on an (S, ...) stack, run once per distinct item
    (by its bytes, or its values for an integer or bool stack) and
    scattered back; the stack may be empty.  On a crystalline lattice the
    cells are translates of a few model simplices, so their edge matrices
    repeat byte for byte.  A stacked linalg kernel gives each item the bits
    of a stack of one, so the result is the direct call's, bit for bit."""
    first, inverse, _ = _unique_rows(stack.reshape(len(stack), math.prod(stack.shape[1:])))
    return kernel(stack[first])[inverse]


def _face_tables(simplices: list, num_vertices: int):
    """Every face of the given simplices, per dimension d, as a read-only
    (F, d+1) array of sorted vertex ids in increasing order of rows; the
    maximal faces (no proper face of another), sorted by decreasing
    dimension and then in that order; and ``(face, owner)``, two arrays
    with an entry per face of each simplex: the face's position in the
    tables read in order of dimension, and the simplex's in ``simplices``.

    Raises for the first simplex (in order) with a repeated vertex or an id
    out of range.  The faces come from one combination table per (size,
    face size) and are deduplicated, sizes first, by one :func:`_unique_rows`
    of the (size, ids) rows, padded with 0.
    """
    by_size: dict[int, list[int]] = {}
    for i, simplex in enumerate(simplices):
        by_size.setdefault(len(simplex), []).append(i)
    stacks, bad = {}, []
    for k, at in by_size.items():
        if k == 0:
            continue
        ids = np.sort(np.array([simplices[i] for i in at], dtype=np.int64).reshape(-1, k),
                      axis=1)
        repeated = (ids[:, 1:] == ids[:, :-1]).any(axis=1)
        wrong = np.flatnonzero(repeated | (ids[:, 0] < 0) | (ids[:, -1] >= num_vertices))
        if wrong.size:
            bad.append((at[wrong[0]], bool(repeated[wrong[0]])))
        stacks[k] = ids
    if bad:
        i, repeated = min(bad)
        if repeated:
            raise FaceIntersectionViolation(f"repeated vertex in simplex {simplices[i]}")
        raise QueryNotInComplex(f"vertex id out of range in {simplices[i]}")
    if not stacks:
        return {}, (), (_NO_IDS, _NO_IDS)
    width = max(stacks)
    parts = [(r, ids[:, _combinations(k, r)].reshape(-1, r), r < k)
             for k, ids in sorted(stacks.items()) for r in range(1, k + 1)]
    owner = np.concatenate([np.repeat(by_size[k], len(_combinations(k, r)))
                            for k in sorted(stacks) for r in range(1, k + 1)])
    rows = np.zeros((sum(len(f) for _, f, _ in parts), width + 1), dtype=np.int64)
    proper = np.zeros(len(rows), dtype=bool)
    lo = 0
    for r, faces, inner in parts:
        rows[lo:lo + len(faces), 0] = r
        rows[lo:lo + len(faces), 1:r + 1] = faces
        proper[lo:lo + len(faces)] = inner
        lo += len(faces)
    first, inverse, _ = _unique_rows(rows)
    covered = np.zeros(len(first), dtype=bool)
    covered[inverse[proper]] = True
    unique = rows[first]
    sizes = unique[:, 0]
    tables, tops = {}, []
    for r in np.unique(sizes).tolist()[::-1]:
        sel = sizes == r
        tables[r - 1] = np.ascontiguousarray(unique[sel, 1:r + 1])
        tables[r - 1].setflags(write=False)
        tops += map(tuple, tables[r - 1][~covered[sel]].tolist())
    return dict(sorted(tables.items())), tuple(tops), (inverse, owner)


class SimplicialComplex:
    """A finite simplicial complex embedded in R^N.

    Construct through :func:`build_complex`; the raw constructor checks the
    vertex table (its shape, finite coordinates) and the simplex ids, and
    trusts the geometry (used by the subdivision code, which is correct by
    construction).
    """

    def __init__(self, ambient_dim: int, vertices: np.ndarray,
                 top_simplices: list[tuple[int, ...]]):
        self.ambient_dim = int(ambient_dim)
        self.vertices = np.array(vertices, dtype=float)
        self.vertices.setflags(write=False)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.ambient_dim:
            raise AmbientMismatch(
                f"vertex table has shape {self.vertices.shape}, expected "
                f"(*, {self.ambient_dim})"
            )
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise PreconditionViolated(
                f"vertex {bad[0]} has non-finite coordinates {self.vertices[bad[0]].tolist()}")
        self._faces, self._tops, _ = _face_tables(list(top_simplices), len(self.vertices))
        self._simplices: dict[int, tuple[tuple[int, ...], ...]] = {
            d: tuple(map(tuple, ids.tolist())) for d, ids in self._faces.items()
        }
        self._membership = {s for faces in self._simplices.values() for s in faces}
        self._vertex_to_simplices: dict[int, tuple[tuple[int, ...], ...]] | None = None

    # -- queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._simplices) if self._simplices else -1

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def top_simplices(self) -> tuple[tuple[int, ...], ...]:
        """Maximal simplices, sorted by decreasing dimension then id order."""
        return self._tops

    def simplices_of_dim(self, d: int) -> tuple[tuple[int, ...], ...]:
        return self._simplices.get(d, ())

    def all_simplices(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for d in sorted(self._simplices):
            out.extend(self._simplices[d])
        return out

    def __contains__(self, simplex) -> bool:
        return tuple(sorted(simplex)) in self._membership

    def coords(self, simplex) -> np.ndarray:
        return self.vertices[list(simplex)]

    def _face_ids(self, d: int) -> np.ndarray:
        """The d-simplices as a read-only (F, d+1) id array, rows in
        ``simplices_of_dim(d)`` order."""
        return self._faces.get(d, np.zeros((0, d + 1), dtype=np.int64))

    def _incident(self, vid: int) -> tuple[tuple[int, ...], ...]:
        """The simplices holding vertex ``vid``, in ``all_simplices`` order;
        the table is built on first use, from one stable sort of the
        (vertex, simplex) incidences."""
        if self._vertex_to_simplices is None:
            every = self.all_simplices()
            faces = [self._faces[d] for d in sorted(self._faces)]
            starts = np.cumsum([0] + [len(f) for f in faces])
            vertex = np.concatenate([f.ravel() for f in faces] + [_NO_IDS])
            place = np.concatenate([np.repeat(np.arange(lo, lo + len(f)), f.shape[1])
                                    for lo, f in zip(starts.tolist(), faces)] + [_NO_IDS])
            by_vertex = np.argsort(vertex, kind="stable")
            vertex, place = vertex[by_vertex], place[by_vertex].tolist()
            cuts = (np.flatnonzero(np.diff(vertex)) + 1).tolist()
            self._vertex_to_simplices = {
                v: tuple(map(every.__getitem__, place[a:b]))
                for v, a, b in zip(vertex[[0] + cuts].tolist() if len(vertex) else [],
                                   [0] + cuts, cuts + [len(vertex)])
            }
        return self._vertex_to_simplices.get(vid, ())

    @cached_property
    def _ball(self) -> "_Ball | None":
        """The data of the degree test when |K| is a PL n-ball, else None;
        see :func:`_ball_of`.  Computed on first use."""
        return _ball_of(self)

    def _locate(self, points, tol: float = 1e-9) -> list[tuple]:
        """A top simplex containing each row of ``points``, as ``(top, b,
        defect)``: the top and the :func:`barycentric_coordinates` of the
        point in it, computed once.

        The rule is the scalar one: in top order, the first top where the
        worse of the :func:`barycentric_coordinates` defect and the most
        negative coordinate is at most ``tol``, else the best top if that
        is at most 1e-6.  Only the tops that pass a stacked prefilter are
        tried; it drops a top only when its stacked coordinates miss the
        larger of those bounds by ``_LOCATE_SLACK``, far above float error,
        and never drops a top whose ``rmin <= 1e-6 * rmax``.  So the chosen
        top, and its bits, are the scan's over every top.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        limit = max(tol, 1e-6)
        step = max(1, _LOCATE_BLOCK // max(1, len(self._tops)))
        out = []
        for lo in range(0, len(pts), step):
            chunk = pts[lo:lo + step]
            for p, near in zip(chunk, self._near_tops(chunk, limit + _LOCATE_SLACK)):
                # the first top within tol is also the best one so far
                best, best_worst = None, np.inf
                for t in np.flatnonzero(near).tolist():
                    s = self._tops[t]
                    b, defect = barycentric_coordinates(self.coords(s), p)
                    worst = max(defect, -min(float(np.min(b)), 0.0))
                    if worst < best_worst:
                        best, best_worst = (s, b, defect), worst
                    if worst <= tol:
                        break
                if best_worst > limit:
                    raise QueryNotInComplex(f"point {p.tolist()} is not in the complex")
                out.append(best)
        return out

    @cached_property
    def _top_frames(self):
        """Per size group of the tops: their positions in ``top_simplices``,
        first vertices, edge matrices (S, N, k - 1) and pseudo-inverses, and
        whether the prefilter may drop them (``rmin > 1e-6 * rmax``)."""
        frames = []
        for k, rows, ids in size_groups(self._tops):
            pts = self.vertices[ids]
            edges = np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2)
            if k >= 2:
                rmin, rmax = cell_radii(pts)
                prunable = rmin > 1e-6 * rmax
            else:
                rmax, prunable = np.zeros(len(rows)), np.ones(len(rows), dtype=bool)
            frames.append((rows, pts[:, 0], edges, np.linalg.pinv(edges),
                           rmax, prunable))
        return frames

    def _near_tops(self, pts: np.ndarray, bound: float) -> np.ndarray:
        """(P, T) mask of the tops each point may lie in: the stacked
        barycentric coordinates are all >= -bound and the defect is at most
        ``bound * (1 + |p - v_0| + rmax)``."""
        near = np.ones((len(pts), len(self._tops)), dtype=bool)
        for rows, base, edges, pinv, rmax, prunable in self._top_frames:
            rel = pts.T[None] - base[..., None]  # (S, N, P)
            sol = pinv @ rel
            defect = np.linalg.norm(edges @ sol - rel, axis=1)
            low = np.minimum(1.0 - sol.sum(axis=1), sol.min(axis=1, initial=np.inf))
            scale = 1.0 + np.linalg.norm(rel, axis=1) + rmax[:, None]
            near[:, rows] = (~prunable[:, None]
                             | ((low >= -bound) & (defect <= bound * scale))).T
        return near


def barycentric_coordinates(coords: np.ndarray, point: np.ndarray):
    """Barycentric coordinates of ``point`` w.r.t. simplex ``coords``.

    Returns ``(b, defect)`` where ``defect`` is the residual distance between
    ``point`` and the barycentric combination (nonzero when the point is off
    the simplex's affine span).
    """
    pts = np.asarray(coords, dtype=float)
    p = np.asarray(point, dtype=float)
    m = pts.shape[0] - 1
    if m == 0:
        return np.array([1.0]), float(np.linalg.norm(p - pts[0]))
    edges = (pts[1:] - pts[0]).T
    sol, *_ = np.linalg.lstsq(edges, p - pts[0], rcond=None)
    b = np.empty(m + 1)
    b[1:] = sol
    b[0] = 1.0 - float(np.sum(sol))
    defect = float(np.linalg.norm(edges @ sol - (p - pts[0])))
    return b, defect


def _barycentric(coords: np.ndarray, points: np.ndarray):
    """:func:`barycentric_coordinates` of each point of an (S, N) stack in
    its own simplex of an (S, m + 1, N) stack, from one pseudo-inverse per
    simplex instead of a least-squares solve: ``(b, defect)``, (S, m + 1)
    and (S,)."""
    rel = points - coords[:, 0]
    if coords.shape[1] == 1:
        return np.ones((len(coords), 1)), np.linalg.norm(rel, axis=1)
    edges = (coords[:, 1:] - coords[:, :1]).swapaxes(1, 2)
    sol = (np.linalg.pinv(edges) @ rel[..., None])[..., 0]
    defect = np.linalg.norm((edges @ sol[..., None])[..., 0] - rel, axis=1)
    return np.column_stack([1.0 - sol.sum(axis=1), sol]), defect


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def relative_interiors_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """Decide exactly whether the relative interiors of two simplices meet.

    With the vertices as the rows of A (n_a of them) and B (n_b), they meet
    iff some x, y >= 0 give A^T (1 + x) = B^T (1 + y) and n_a + sum(x) =
    n_b + sum(y) (divide 1 + x and 1 + y by that sum for positive weights
    of one point): M (1 + z) = 0, z = (x, y) >= 0.  Phase 1 of the simplex
    method decides it in ``Fraction``s, with one artificial per row of
    M z = -M 1 (signed to a right side >= 0), dropped once it leaves the
    basis, and Bland's rule, which cannot cycle (Bland, Math. Oper. Res. 2,
    1977).  Floats are exact rationals, so the verdict is a proof for the
    given coordinates, which must be finite and of one width.
    """
    pa, pb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if pa.shape[1] != pb.shape[1]:
        raise AmbientMismatch(f"simplices of width {pa.shape[1]} and {pb.shape[1]}")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise PreconditionViolated("simplex coordinates must be finite")
    m = np.vstack([np.hstack([pa.T, -pb.T]), np.r_[np.ones(len(pa)), -np.ones(len(pb))]])
    tab = []
    for row in ([Fraction(v) for v in r] for r in m.tolist()):
        rhs = -sum(row)
        tab.append([-v for v in row] + [-rhs] if rhs < 0 else row + [rhs])
    n = m.shape[1]
    basis = list(range(n, n + len(tab)))  # the artificials come after z
    cost = [-sum(col) for col in zip(*tab)]  # reduced costs, then -sum of artificials
    while cost[-1] != 0:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            return False
        # least ratio, ties to the least basic variable
        _, _, leave = min((r[-1] / r[enter], basis[i], i)
                          for i, r in enumerate(tab) if r[enter] > 0)
        pivot = tab[leave]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for r in (*tab, cost):
            f = r[enter]
            if r is not pivot and f:
                r[:] = [v - f * p for v, p in zip(r, pivot)]
        basis[leave] = enter
    return True


def _id_table(sims) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids of each simplex as one row, padded with -1, and the row
    sizes."""
    sizes = np.fromiter(map(len, sims), dtype=np.intp, count=len(sims))
    width = int(sizes.max(initial=0))
    ids = np.array([tuple(s) + (-1,) * (width - len(s)) for s in sims],
                   dtype=np.intp).reshape(len(sims), width)
    return ids, sizes


def _bboxes(ids: np.ndarray, sizes: np.ndarray, vertex_coords: np.ndarray):
    """Per-simplex bounding boxes, one min/max pass per simplex size."""
    lo = np.empty((len(sizes), vertex_coords.shape[1]), dtype=vertex_coords.dtype)
    hi = np.empty_like(lo)
    for k in np.unique(sizes):
        rows = np.flatnonzero(sizes == k)
        pts = vertex_coords[ids[rows, :k]]
        lo[rows] = pts.min(axis=1)
        hi[rows] = pts.max(axis=1)
    return lo, hi


def _sat_group(pa: np.ndarray, pb: np.ndarray, tol: float,
               cheap: bool = False, sizes=None) -> np.ndarray:
    """Vectorized separating-axis test over a batch of simplex pairs.

    ``pa`` has shape (m, ka, n) and ``pb`` shape (m, kb, n).  The relative
    interiors are disjoint exactly when a facet normal of the Minkowski
    difference D = A - B, taken within the affine hull of D, separates D
    from the origin.  Candidate axes per pair: the base-point difference,
    the edge directions, and the edge normals (2D) or the cross products
    of the edges (3D).  A pair with a tetrahedron has a solid D, whose
    facet normals are those cross products.  Any other 3D pair crosses the
    base difference too, and adds the cross of its widest normal with each
    of those directions: when the origin lies in the plane of a flat D,
    every nonzero cross is normal to that plane, so these are D's in-plane
    facet normals (when it does not, the plane normal itself separates).
    So the candidate set is complete in R^2 and R^3, and there the exact
    test only confirms overlaps; for N > 3 ``_sat_disjoint_many`` certifies
    nothing and every pair goes to the exact test.  With ``cheap`` only the
    base difference and the edges are tried: the first stage of
    ``_sat_disjoint_many``, a subset of the full axes with the same value
    on each, so it certifies no pair the full set does not.

    ``sizes``, when given, is two arrays: each pair's own vertex counts,
    its simplices padded to ka and kb vertices by repeating their last
    vertex.  Padding leaves every extent and the scale as they are, and the
    full axes of a pair are those of its own counts (:func:`_full_axes`
    gathers them from the padded edges by a table row per vertex-count
    signature), and the slots a pair leaves over hold zero vectors, which
    no axis keeps.  So pairs of several signatures run as
    one batch, each with the axes, and the verdict, of a batch of its own.
    The projections are one batched product per side.

    Strict separation along any axis keeps even the closures apart.  Weak
    separation certifies too, provided one simplex has positive extent
    along the axis: a linear functional attaining its extremum at a
    relative interior point is constant, so touching is then confined to
    boundaries.  Returns a boolean per pair; False is not a verdict, the
    caller must still run the exact test.
    """
    m, ka, n = pa.shape
    kb = pb.shape[1]
    # the largest of 1 and each |coordinate|, a column at a time (faster
    # than a reduce over the short last axes)
    scale = np.ones(m)
    for p in (pa, pb):
        scale = functools.reduce(np.maximum, np.abs(p).reshape(m, -1).T, scale)
    gap = (tol * scale)[:, None]
    ra, sa = _pairs_of(ka)
    rb, sb = _pairs_of(kb)
    # the directions: base difference, A's edges, B's edges
    axes = np.concatenate([pa[:, :1] - pb[:, :1], pa[:, sa] - pa[:, ra],
                           pb[:, sb] - pb[:, rb]], axis=1)
    if not cheap:
        counts = sizes if sizes is not None else (np.full(m, ka), np.full(m, kb))
        axes = _full_axes(axes, counts, ka, kb)
    norms = _norms(axes)
    keep = norms > 1e-14 * scale[:, None]
    # C order: a batched product is several times faster on it than on a view
    axes = np.divide(axes.swapaxes(1, 2), np.where(keep, norms, 1.0)[:, None], order="C")
    a0, a1 = _span(pa @ axes)
    b0, b1 = _span(pb @ axes)
    strict = (a1 <= b0 - gap) | (b1 <= a0 - gap)
    extent = (a1 - a0 > gap) | (b1 - b0 > gap)
    weak = (a1 <= b0 + gap) | (b1 <= a0 + gap)
    return ((strict | (extent & weak)) & keep).any(axis=1)


@functools.cache
def _pairs_of(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``: the index pairs i < j of k vertices."""
    return np.triu_indices(k, 1)


def _full_axes(dirs: np.ndarray, counts, ka: int, kb: int) -> np.ndarray:
    """The full candidate axes of :func:`_sat_group`, unnormalized, from the
    (m, D, n) directions of pairs padded to (ka, kb) vertices (base
    difference, A's edges, B's edges) and each pair's own vertex counts:
    its base difference and edges, then its edge normals (2D) or its
    cross products and their crosses with its widest one (3D), as a batch
    of its signature alone builds them, padded with zero vectors."""
    m, _, n = dirs.shape
    dirs = np.concatenate([dirs, np.zeros((m, 1, n))], axis=1)   # the zero slot
    code = counts[0] * (kb + 1) + counts[1]
    present = _distinct(code)
    table, cuts = _axis_tables(tuple(divmod(c, kb + 1) for c in present.tolist()), ka, kb, n)
    slots = np.arange(0, m * dirs.shape[1], dirs.shape[1])[:, None] + \
        table[np.searchsorted(present, code)]
    direct, *parts = np.split(np.take(dirs.reshape(-1, n), slots, axis=0), cuts, axis=1)
    if n == 2:
        normals = np.stack([-parts[0][..., 1], parts[0][..., 0]], axis=-1)
    else:
        normals = _cross(parts[0], parts[1])
        if parts[2].shape[1]:
            widest = normals[np.arange(m), _norms(normals).argmax(axis=1)][:, None]
            normals = np.concatenate([normals, _cross(widest, parts[2])], axis=1)
    return np.concatenate([direct, normals], axis=1)


@functools.cache
def _axis_tables(kinds: tuple, ka: int, kb: int, n: int) -> tuple:
    """The full axes of pairs of each (ka', kb') signature of ``kinds``,
    padded to (ka, kb) vertices, as slots of :func:`_sat_group`'s
    directions: base difference 0, A's edges 1.. in ``_pairs_of(ka)``
    order, then B's, then the zero slot.  A row per signature holds its
    parts side by side, each padded with the zero slot to the widest of
    the kinds: the base difference and the edges; then the edges to turn
    (2D), or the first and second factors of each cross product and the
    directions to cross with the widest (3D), all in the order of a batch
    of that signature alone.  Returns the table and the cuts between the
    parts."""
    edges_a, edges_b = _pairs_of(ka)[1].tolist(), _pairs_of(kb)[1].tolist()
    zero = 1 + len(edges_a) + len(edges_b)
    plans = []
    for a, b in kinds:
        edges = [1 + t for t, s in enumerate(edges_a) if s < a] + \
                [1 + len(edges_a) + t for t, s in enumerate(edges_b) if s < b]
        if n == 2:
            plans.append(([0] + edges, edges))
            continue
        flat = max(a, b) <= n
        dirs = [0] + edges if flat else edges
        crosses = list(itertools.combinations(dirs, 2))
        plans.append(([0] + edges, [i for i, _ in crosses], [j for _, j in crosses],
                      dirs if flat and crosses else []))
    widths = [max(map(len, part)) for part in zip(*plans)]
    table = np.array([sum((p + [zero] * (w - len(p)) for p, w in zip(plan, widths)), [])
                      for plan in plans], dtype=np.intp).reshape(len(plans), sum(widths))
    table.setflags(write=False)
    return table, np.cumsum(widths)[:-1].tolist()


def _norms(vectors: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(vectors, axis=-1)`` bit for bit: the squares summed
    in order, without a reduce over the short last axis."""
    return np.sqrt(functools.reduce(np.add, [x * x for x in np.moveaxis(vectors, -1, 0)]))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.cross(u, v)`` of two broadcast stacks of 3-vectors, bit for bit:
    the same products and differences, without its axis handling."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _span(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimum and maximum of a (m, k, a) stack over its k axis, by
    k - 1 elementwise steps each (a strided reduce is slower here)."""
    lo = hi = d[:, 0]
    for i in range(1, d.shape[1]):
        lo, hi = np.minimum(lo, d[:, i]), np.maximum(hi, d[:, i])
    return lo, hi


_SAT_CHUNK = 4096
_SWEEP_BLOCK = 65536


def _all(masks) -> np.ndarray:
    """The elementwise AND of some boolean arrays of one shape."""
    return functools.reduce(np.logical_and, masks)


def _any(masks) -> np.ndarray:
    """The elementwise OR of some boolean arrays of one shape."""
    return functools.reduce(np.logical_or, masks)


def _candidate_pairs(ids: np.ndarray, sizes: np.ndarray,
                     vertex_coords: np.ndarray,
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j, in (i, j) order, of simplices (rows of the id
    table ``ids``) whose bounding boxes meet within a pad of ``tol`` times
    the largest box extent on every axis, and where neither simplex is a
    face of the other.

    Sort and sweep (Ericson, Real-Time Collision Detection, 2004, ch. 7):
    boxes are sorted by their low end on the axis where the box centres
    spread most, so each box's partners are the run of later boxes that
    start before its padded high end.  The runs are emitted in blocks of
    about ``_SWEEP_BLOCK`` pairs to bound memory, and each block is filtered
    with the same ``lo <= hi + pad`` rule on every axis.
    """
    none = np.empty(0, dtype=np.intp)
    if not len(ids):
        return none, none
    lo, hi = _bboxes(ids, sizes, vertex_coords)
    pad = tol * max(1.0, float(np.max(hi - lo)))
    # by column: a test per column and axis beats a reduce over a short axis
    lo_t, hi_t, ids_t = lo.T.copy(), hi.T.copy(), ids.T.copy()
    axis = int(np.argmax(np.var(lo + hi, axis=0)))
    order = np.argsort(lo[:, axis], kind="stable")
    start = lo[order, axis]
    stop = np.searchsorted(start, hi[order, axis] + pad, side="right")
    count = np.maximum(stop - np.arange(1, len(order) + 1), 0)
    ends = np.cumsum(count)
    firsts, seconds = [none], [none]
    row = 0
    while row < len(order):
        base = ends[row] - count[row]
        last = max(int(np.searchsorted(ends, base + _SWEEP_BLOCK, side="right")),
                   row + 1)
        c = count[row:last]
        p = np.repeat(np.arange(row, last), c)
        row_start = np.repeat(ends[row:last] - c - base, c)
        q = p + 1 + np.arange(ends[last - 1] - base) - row_start
        a, b = order[p], order[q]
        i, j = np.minimum(a, b), np.maximum(a, b)
        near = _all(lo_t[d][i] <= hi_t[d][j] + pad for d in range(len(lo_t)))
        near &= _all(lo_t[d][j] <= hi_t[d][i] + pad for d in range(len(lo_t)))
        i, j = i[near], j[near]
        vi, vj = ids_t[:, i], ids_t[:, j]
        same = [[u == w for w in vj] for u in vi]
        i_in_j = _all(_any(row) | (u < 0) for row, u in zip(same, vi))
        j_in_i = _all(_any(col) | (w < 0) for col, w in zip(zip(*same), vj))
        proper = ~(i_in_j | j_in_i)
        firsts.append(i[proper])
        seconds.append(j[proper])
        row = last
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    by_pair = np.argsort(first * len(ids) + second)    # the pairs are distinct
    return first[by_pair], second[by_pair]


def _sat_disjoint_many(first: np.ndarray, second: np.ndarray, ids: np.ndarray,
                       sizes: np.ndarray, vertex_coords: np.ndarray,
                       tol: float) -> np.ndarray:
    """Run the separating-axis certificate over indexed candidate pairs.

    Pair t joins simplex ``first[t]`` to simplex ``second[t]`` (rows of the
    id table ``ids``), gathered straight from ``vertex_coords``.  Two
    stages:

    * The cheap axes of :func:`_sat_group` (base difference and edges), on
      all pairs in one batch, which separate most pairs of a mesh.  Each
      simplex is padded to the widest by repeating its last vertex: that
      adds only repeated edges and zero edges, which no axis keeps, and
      leaves every extent and the scale as they are.
    * The full axis set on the pairs the first stage leaves uncertified,
      in one batch per largest simplex size max(ka, kb), padded the same
      way.  Each pair takes the axes of its own vertex counts (``sizes`` of
      :func:`_sat_group`); a batch pads them with zero axes to the most
      any of its signatures has.  Rotor's jiggled boundary takes two
      batches instead of five; one batch of every flat pair would be
      slower there, as its edge pairs have 9 axes and its triangle pairs
      35.

    Each axis has the same value in both stages, so every verdict is the
    full set's.
    """
    out = np.zeros(len(first), dtype=bool)
    n = vertex_coords.shape[1]
    if not len(first) or n not in (2, 3):
        return out
    last = ids[np.arange(len(ids)), sizes - 1]
    padded = np.where(ids >= 0, ids, last[:, None])

    def batch(ts: np.ndarray, cheap: bool) -> None:
        for lo in range(0, len(ts), _SAT_CHUNK):
            t = ts[lo:lo + _SAT_CHUNK]
            ka, kb = sizes[first[t]], sizes[second[t]]
            out[t] = _sat_group(np.take(vertex_coords, padded[first[t], :ka.max()], axis=0),
                                np.take(vertex_coords, padded[second[t], :kb.max()], axis=0),
                                tol, cheap, sizes=None if cheap else (ka, kb))

    batch(np.arange(len(first)), True)
    rest = np.flatnonzero(~out)
    widest = np.maximum(sizes[first[rest]], sizes[second[rest]])
    for k in _distinct(widest).tolist():
        batch(rest[widest == k], False)
    return out


def _in_one_simplex(first: np.ndarray, second: np.ndarray, sims,
                    vertex_coords: np.ndarray, tol: float) -> np.ndarray:
    """Whether the vertices of each indexed pair of ``sims`` together are a
    simplex of ``sims`` with ``rmin > tol * rmax`` at ``vertex_coords``.
    Such a simplex's vertices are affinely independent, so two of its faces
    meet exactly in their common face: the pair's relative interiors are
    disjoint."""
    index = {frozenset(s): t for t, s in enumerate(sims)}
    hit = np.array([index.get(frozenset(sims[i]).union(sims[j]), -1)
                    for i, j in zip(first.tolist(), second.tolist())], dtype=np.intp)
    sound = np.zeros(len(sims) + 1, dtype=bool)  # the last entry answers -1
    targets = np.unique(hit[hit >= 0])
    for _, rows, ids in size_groups([sims[t] for t in targets.tolist()]):
        rmin, rmax = cell_radii(vertex_coords[ids])
        sound[targets[rows]] = rmin > tol * rmax
    return sound[hit]


def find_interior_overlap(simplices: list[tuple[int, ...]],
                          vertex_coords: np.ndarray,
                          tol: float = _INTERIOR_TOL):
    """Find a pair of simplices whose relative interiors intersect.

    ``simplices`` index into ``vertex_coords`` (which need not be the
    complex's own table: image coordinates reuse this for embedding checks).
    Pairs in a face relation are skipped.  The rest are decided by a
    sweep-and-prune pass over bounding boxes, then the batched
    separating-axis certificate (SAT; its cheap axes first, the full set
    only on the pairs they leave, see ``_sat_disjoint_many``), then the
    exact LP of :func:`relative_interiors_intersect`.  Before the LP a
    pair whose vertices together are a listed simplex with ``rmin > tol *
    rmax`` is dropped, since two faces of one nondegenerate simplex meet
    exactly in their common face; SAT already certifies such pairs in R^2
    and R^3, so this spares the LP in R^N, N > 3.  Returns the first
    overlapping pair in (i, j) order, or None.

    This is the pairwise test.  ``validate_complex`` runs it on every
    simplex.  ``plmaps.is_piecewise_embedding`` runs it on every simplex
    only when the domain is not a PL n-ball in R^n (n = 2, 3) or the image
    lies in another dimension; for a ball it runs it on the closure of the
    boundary, after the orientation signs, since an orientation-keeping
    map that is injective on the boundary embeds the ball (the degree
    argument stated there).  Only the box pads, the SAT gaps and that
    ``rmin`` bound keep ``tol`` (the LP is exact), so the two may disagree
    only on a map within about ``tol`` (1e-9 relative) of losing
    injectivity.  ``vertex_coords`` must be finite.
    """
    if not np.isfinite(vertex_coords).all():
        raise PreconditionViolated("vertex coordinates must be finite")
    sims = list(simplices)
    ids, sizes = _id_table(sims)
    first, second = _candidate_pairs(ids, sizes, vertex_coords, tol)
    certified = _sat_disjoint_many(first, second, ids, sizes, vertex_coords, tol)
    first, second = first[~certified], second[~certified]
    if not len(first):
        return None
    apart = _in_one_simplex(first, second, sims, vertex_coords, tol)
    for i, j in zip(first[~apart].tolist(), second[~apart].tolist()):
        if relative_interiors_intersect(vertex_coords[list(sims[i])],
                                        vertex_coords[list(sims[j])]):
            return sims[i], sims[j]
    return None


def validate_complex(complex_: SimplicialComplex, tol: float = _INTERIOR_TOL):
    """Check the two geometric complex invariants.

    Raises :class:`DegenerateSimplex` when a maximal simplex is flat and
    :class:`FaceIntersectionViolation` when two simplices meet in a set that
    is not a common face (equivalently: their relative interiors intersect
    although they are not the same simplex).
    """
    top_radii(complex_, complex_.vertices)  # raises DegenerateSimplex
    bad = find_interior_overlap(complex_.all_simplices(), complex_.vertices, tol)
    if bad is not None:
        raise FaceIntersectionViolation(
            f"simplices {bad[0]} and {bad[1]} overlap in a non-face"
        )


def build_complex(ambient_dim: int, vertices, simplices,
                  validate: bool = True) -> SimplicialComplex:
    """Build a face-closed complex from a vertex table and simplex id lists."""
    cx = SimplicialComplex(ambient_dim, np.asarray(vertices, dtype=float),
                           [tuple(s) for s in simplices])
    if validate:
        validate_complex(cx)
    return cx


# ---------------------------------------------------------------------------
# the ball test of the degree certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Ball:
    """What the degree test of an embedding needs from a PL n-ball K: the
    tops as an (T, n + 1) id array, their orientation signs in K's own
    coordinates, and the closure of the boundary facets."""

    tops: np.ndarray
    signs: np.ndarray
    boundary: tuple[tuple[int, ...], ...]


def _ridges(facets: np.ndarray):
    """The codimension-one faces of an (F, k) id array, how many facets
    hold each, and the facets holding them, grouped face by face."""
    f, k = facets.shape
    rows = np.concatenate([np.delete(facets, i, axis=1) for i in range(k)])
    first, inverse, counts = _unique_rows(rows)
    owner = np.tile(np.arange(f), k)[np.argsort(inverse, kind="stable")]
    return rows[first], counts, owner


def _is_sphere(facets: np.ndarray) -> bool:
    """Whether an (F, d + 1) id array of d-simplices, d = 1 or 2, is a
    triangulated d-sphere: each (d - 1)-face in exactly two facets, the
    facets connected through those faces, and for d = 2 the Euler
    characteristic V - E + F equal to 2.  That leaves no pinched vertex:
    splitting a vertex whose link is k cycles into k vertices adds k - 1 to
    the Euler characteristic, and a connected closed surface has at most 2.
    """
    if not len(facets):
        return False
    faces, counts, owner = _ridges(facets)
    if (counts != 2).any():
        return False
    # connected: pass the least label across every ridge and jump pointers
    # until nothing changes; a label stays a facet of the same component and
    # never grows, so at the fixed point it is the component's least facet
    u, v = owner[0::2], owner[1::2]
    label, new = None, np.arange(len(facets))
    while not np.array_equal(new, label):
        label, new = new, new.copy()
        np.minimum.at(new, u, label[v])
        np.minimum.at(new, v, label[u])
        new = new[new]
    return not label.any() and (facets.shape[1] == 2 or
                                len(np.unique(facets)) - len(faces) + len(facets) == 2)


def _ball_of(complex_: SimplicialComplex) -> _Ball | None:
    """The :class:`_Ball` of K when |K| is a PL n-ball, n = 2 or 3, else None.

    K must be pure of dimension n in R^n, each (n - 1)-face must lie in one
    or two tops, and the boundary (the (n - 1)-faces in one top) must pass
    :func:`_is_sphere`: one cycle for n = 2, one connected closed surface
    with Euler characteristic 2 for n = 3.  For an embedded K (what a
    :class:`SimplicialComplex` is) that makes |K| a ball: every point is a
    manifold point, the boundary is a circle or a 2-sphere, and by
    Schoenflies (n = 2) or Alexander's PL theorem (n = 3) it bounds a ball,
    which is |K|.  The Euler characteristic alone would not do: the
    boundary of an annulus, two cycles, has it 0 like one cycle.
    """
    n = complex_.ambient_dim
    tops = complex_.top_simplices
    if n not in (2, 3) or not tops or any(len(t) != n + 1 for t in tops):
        return None
    ids = np.array(tops, dtype=np.intp)
    faces, counts, _ = _ridges(ids)
    outer = faces[counts == 1]
    if counts.max() > 2 or not _is_sphere(outer):
        return None
    signs = _orientations(complex_.vertices[ids])
    if not signs.all():
        return None
    return _Ball(ids, signs, closure(complex_, [tuple(f) for f in outer.tolist()]))


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------

def _as_simplex_list(complex_: SimplicialComplex, query) -> list[tuple[int, ...]]:
    if isinstance(query, (int, np.integer)):
        query = [(int(query),)]
    elif isinstance(query, tuple) and query and isinstance(query[0], (int, np.integer)):
        query = [query]
    out = []
    for s in query:
        t = tuple(sorted(int(v) for v in s))
        if t not in complex_._membership:
            raise QueryNotInComplex(f"simplex {t} is not in the complex")
        out.append(t)
    return out


def closure(complex_: SimplicialComplex, simplices) -> tuple[tuple[int, ...], ...]:
    """Smallest subcomplex containing the given simplices."""
    seed = _as_simplex_list(complex_, simplices)
    out = set()
    for s in seed:
        for r in range(1, len(s) + 1):
            out.update(itertools.combinations(s, r))
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def star(complex_: SimplicialComplex, query, times: int = 1) -> tuple[tuple[int, ...], ...]:
    """All simplices adjacent to the query (sharing a face) plus their faces.

    ``times`` iterates the operator: ``star(star(...))``.
    """
    current = set(_as_simplex_list(complex_, query))
    for _ in range(times):
        verts = {v for s in current for v in s}
        touched = set()
        for v in verts:
            touched.update(complex_._incident(v))
        current = set(closure(complex_, sorted(touched)))
    return tuple(sorted(current, key=lambda s: (len(s), s)))


def link(complex_: SimplicialComplex, vertex: int) -> tuple[tuple[int, ...], ...]:
    """Simplices s with vertex not in s and s + vertex in the complex."""
    v = int(vertex)
    if (v,) not in complex_._membership:
        raise QueryNotInComplex(f"vertex {v} is not in the complex")
    out = []
    for s in complex_._incident(v):
        reduced = tuple(u for u in s if u != v)
        if reduced:
            out.append(reduced)
    return tuple(sorted(set(out), key=lambda s: (len(s), s)))


def vlink(complex_: SimplicialComplex, vertex: int) -> tuple[int, ...]:
    """Vertices of the link: the edge neighbors of ``vertex``."""
    return tuple(sorted({s[0] for s in link(complex_, vertex) if len(s) == 1}))


# ---------------------------------------------------------------------------
# subdivision maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubdivisionMap:
    """Exact bookkeeping for a subdivision step: one integer support table.

    Child vertex v is the sum over c of ``weights[v, c] / denominator`` times
    parent vertex ``ids[v, c]``: the vertices of its minimal parent carrier
    face, in increasing order, padded on the right with id -1 and weight 0.
    """

    parent: SimplicialComplex
    child: SimplicialComplex
    ids: np.ndarray
    weights: np.ndarray
    denominator: int

    @cached_property
    def vertex_support(self) -> dict[int, tuple[tuple[int, Fraction], ...]]:
        """The table in ``Fraction``s: child id -> ((parent id, weight), ...)."""
        return {v: tuple((g, Fraction(w, self.denominator)) for g, w in zip(gs, ws) if g >= 0)
                for v, (gs, ws) in enumerate(zip(self.ids.tolist(), self.weights.tolist()))}


def _interpolate(ids, weights, denominator: int, values: np.ndarray) -> np.ndarray:
    """Each table row's combination of the rows of ``values``, added term by
    term in support order onto zeros.  Pads read an appended zero row: they
    add exactly nothing, also beside an infinite value."""
    rows = np.vstack([values, np.zeros((1, values.shape[1]))])
    out = np.zeros((len(ids), rows.shape[1]))
    # an infinite value makes inf or NaN here quietly: callers that need
    # finite rows check for them and raise a typed error
    with np.errstate(invalid="ignore", over="ignore"):
        for c in range(ids.shape[1]):
            out = out + weights[:, c, None] / denominator * rows[ids[:, c]]
    return out


def _refine(complex_: SimplicialComplex, cells, denominator: int):
    """Replace each top of k >= 2 vertices by the cells ``cells(k)``, k rows
    of weights over ``denominator`` on its vertices each.  :func:`_unique_rows`
    interns the rows of the parent vertices, then of the cell vertices in
    sorted top order: numbered by first appearance, as interned one by one."""
    if denominator > 2 ** 62:  # so that int64 weight products stay exact
        raise PreconditionViolated(f"subdivision denominator {denominator} passes 2**62")
    n = complex_.num_vertices
    tops = sorted(complex_.top_simplices)
    templates = {k: cells(k) for k in set(map(len, tops)) if k >= 2}
    height = np.array([len(templates.get(len(t), ())) for t in tops], dtype=np.intp)
    start = n + np.cumsum(height) - height
    ids = np.full((n + height.sum(), max(templates, default=1)), -1, dtype=np.int64)
    weights = np.zeros_like(ids)
    ids[:n, 0], weights[:n, 0] = np.arange(n), denominator
    blocks = []
    for k, pos, top_ids in size_groups(tops):
        if k >= 2:
            left = np.argsort(templates[k] == 0, axis=1, kind="stable")  # support first
            at = start[pos, None] + np.arange(len(left))
            weights[at, :k] = np.take_along_axis(templates[k], left, axis=1)
            ids[at, :k] = np.where(weights[at, :k] > 0, top_ids[:, left], -1)
            blocks.append(at.reshape(-1, k))
    first, inverse, _ = _unique_rows(np.hstack([ids, weights]))
    order = np.argsort(first)
    vid = np.argsort(order)[inverse]
    ids, weights = ids[first[order]], weights[first[order]]
    child_tops = [t for t in tops if len(t) < 2]
    for at in blocks:
        child_tops += map(tuple, np.sort(vid[at], axis=1).tolist())
    coords = _interpolate(ids, weights, denominator, complex_.vertices)
    coords[:n] = complex_.vertices  # parent vertices keep their bits
    child = SimplicialComplex(complex_.ambient_dim, coords, child_tops)
    return child, SubdivisionMap(complex_, child, ids, weights, denominator)


def compose_subdivisions(first: SubdivisionMap, second: SubdivisionMap) -> SubdivisionMap:
    """Chain two subdivision steps into one exact map.

    ``second`` must subdivide ``first.child``; the result maps
    ``second.child`` vertices onto supports over ``first.parent``: the
    product of the integer tables over the product of denominators.  Each
    term is gathered, multiplied and keyed by row * parent count + id, and
    equal keys are summed in int64, exact below the 2**62 cap.
    """
    if second.parent is not first.child:
        raise DomainMismatch("subdivision maps do not chain")
    denominator = first.denominator * second.denominator
    if denominator > 2 ** 62:
        raise PreconditionViolated(f"subdivision denominator {denominator} passes 2**62")
    inner = np.maximum(second.ids, 0)  # pads gather row 0 and are masked out
    gids = first.ids[inner]
    terms = (second.ids >= 0)[:, :, None] & (gids >= 0)
    n = first.parent.num_vertices
    keys, at = np.unique(np.nonzero(terms)[0] * n + gids[terms], return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, at, (second.weights[:, :, None] * first.weights[inner])[terms])
    rows = keys // n
    slot = np.arange(len(keys)) - np.searchsorted(rows, rows)
    ids = np.full((len(second.ids), slot.max(initial=-1) + 1), -1, dtype=np.int64)
    weights = np.zeros_like(ids)
    ids[rows, slot], weights[rows, slot] = keys % n, sums
    return SubdivisionMap(first.parent, second.child, ids, weights, denominator)


def _carriers(complex_: SimplicialComplex, points, bound: float,
              tol: float = _INTERIOR_TOL) -> np.ndarray:
    """Each point's carrier face, a (points, vertices) mask: the vertices of
    its top (one ``_locate`` pass) whose coordinate exceeds ``bound``.  A
    point off the complex by more than ``tol`` raises QueryNotInComplex."""
    mask = np.zeros((len(points), complex_.num_vertices), dtype=bool)
    for i, (point, (top, b, defect)) in enumerate(zip(points, complex_._locate(points, tol))):
        if defect > tol:
            raise QueryNotInComplex(f"point {point} lies outside the complex")
        mask[i, list(top)] = b > bound
    return mask


def _parents(complex_: SimplicialComplex, carriers: np.ndarray, cells):
    """``(holders, parents)``: the (points, tops) mask of the tops that hold
    each carrier, and each cell's parent, the first top (its position in
    ``top_simplices``) that holds the carriers of all its vertices, or -1."""
    outside = np.ones((len(complex_.top_simplices), complex_.num_vertices), dtype=np.intp)
    for t, top in enumerate(complex_.top_simplices):
        outside[t, list(top)] = 0
    holders = carriers.astype(np.intp) @ outside.T == 0
    held = np.zeros((len(cells), len(outside)), dtype=bool)
    for _, rows, ids in size_groups(cells):
        held[rows] = holders[ids].all(axis=1)
    return holders, np.where(held.any(axis=1), held.argmax(axis=1), -1)


def _untiled(complex_: SimplicialComplex, cells, parents: np.ndarray,
             coords: np.ndarray, rel_tol: float):
    """``(top position, sum, volume)`` of the first top of positive volume
    whose cells (``parents``) at ``coords`` do not tile it: their unsigned
    volumes sum to more than ``rel_tol`` times its volume away; or None."""
    target = _volumes(complex_.top_simplices, complex_.vertices)
    total = np.bincount(parents, weights=_volumes(cells, coords), minlength=len(target))
    bad = np.flatnonzero((target > 0) & (np.abs(total - target) > rel_tol * target))
    return (int(bad[0]), float(total[bad[0]]), float(target[bad[0]])) if bad.size else None


# ---------------------------------------------------------------------------
# crystalline and barycentric subdivision
# ---------------------------------------------------------------------------

@cache
def _kuhn_cells(k: int, scale: int) -> np.ndarray:
    """The crystalline cells of a (k - 1)-simplex for :func:`_refine`, read-only:
    Edelsbrunner and Grayson's edgewise subdivision (DCG 24, 2000).  Cell
    (z, chain) has vertices u_0 = z, u_{t+1} = u_t + e_{chain[m-1-t]}, weights
    ``diff((0, *u, scale))`` and coordinate sums (m + 1) z_i + c_i (c: inverse
    chain + 1), which increase iff z rises, or c rises where z repeats."""
    m = k - 1
    z = np.array(list(itertools.combinations_with_replacement(range(scale), m)))
    c = np.argsort(np.array(list(itertools.permutations(range(m)))), axis=1) + 1
    zi, ci = np.nonzero(((z[:, None, 1:] > z[:, None, :-1]) | (c[:, 1:] > c[:, :-1])).all(axis=2))
    u = z[zi, None] + (c[ci, None] + np.arange(k)[:, None] > m)
    out = np.diff(u, prepend=0, append=scale, axis=2).reshape(-1, k)
    out.setflags(write=False)
    return out


def crystalline_subdivide(complex_: SimplicialComplex, levels: int):
    """Crystalline subdivision at dyadic depth ``levels``.

    Each ordered m-simplex is included into the unit m-cube as the region
    ``0 <= y_1 <= ... <= y_m <= 1`` (vertex j of the simplex goes to the 0/1
    vector with j zeros).  The cube is cut into ``2**(levels*m)`` subcubes and
    each subcube into ``m!`` permutation cells; the cells lying inside the
    simplex's region (decided exactly by integer barycenter comparisons) pull
    back to the children.  That region is ``1/m!`` of the cube, so each
    m-simplex gets ``2**(levels*m)`` children; ``m!`` is the number of Kuhn
    cells per subcube, and only a Kuhn-triangulated cube (``m!`` simplices)
    gets ``2**(levels*m) * m!``.  ``levels = 0`` returns the complex unchanged.

    Returns ``(child_complex, SubdivisionMap)``.
    """
    if levels < 0:
        raise PreconditionViolated("levels must be >= 0")
    if levels == 0:
        n = complex_.num_vertices
        return complex_, SubdivisionMap(complex_, complex_, np.arange(n)[:, None],
                                        np.ones((n, 1), dtype=np.int64), 1)
    return _refine(complex_, lambda k: _kuhn_cells(k, 2 ** levels), 2 ** levels)


def barycentric_subdivide(complex_: SimplicialComplex):
    """One barycentric subdivision; every m-simplex becomes (m+1)! children,
    one per vertex permutation: vertex i is its first i + 1 vertices' barycenter."""
    widest = max(map(len, complex_.top_simplices), default=1)
    denominator = math.lcm(*range(1, widest + 1))

    def cells(k):
        rank = np.argsort(np.array(list(itertools.permutations(range(k)))), axis=1)
        face = rank[:, None, :] <= np.arange(k)[:, None]
        return (face * (denominator // np.arange(1, k + 1))[:, None]).reshape(-1, k)

    return _refine(complex_, cells, denominator)


# ---------------------------------------------------------------------------
# model classes and shape summaries
# ---------------------------------------------------------------------------

def model_classes(complex_: SimplicialComplex, levels: int,
                  decimals: int = 9) -> dict[tuple, int]:
    """Translation classes of the top cells of the level-``levels`` crystalline
    subdivision after rescaling by ``2**levels``.

    Returns a dict mapping canonical shape keys to how often they occur; the
    number of keys is the model class count.  The rescaled children of one
    m-simplex are translates of the images of the ``m!`` Kuhn cells under the
    simplex's cube chart, so the count is at most ``m!`` per top simplex, and
    at most ``m!`` for a single simplex or a Kuhn-triangulated cube.  It is
    stable from level 2 on for a simplex (a tetrahedron has 5 classes at
    level 1 and 6 from level 2) and from level 1 on for a Kuhn-triangulated
    cube.
    """
    child, _ = crystalline_subdivide(complex_, levels)
    classes: dict[tuple, int] = {}
    for cell in child.top_simplices:
        pts = child.coords(cell) * float(2 ** levels)
        rows = sorted(tuple(np.round(p, decimals)) for p in pts)
        base = np.array(rows[0])
        key = tuple(
            tuple(float(x) for x in np.round(np.array(r) - base, decimals))
            for r in rows
        )
        classes[key] = classes.get(key, 0) + 1
    return classes


def complex_shape_extremes(complex_: SimplicialComplex) -> dict[str, float]:
    """Shape summary over the top simplices (used for the scaling laws)."""
    tops, rmin, rmax = top_radii(complex_, complex_.vertices)
    lam = np.empty(len(tops))
    for _, rows, ids in size_groups(tops):
        lam[rows] = _lam(complex_.vertices[ids])
    return {
        "max_rmax": float(rmax.max(initial=0.0)),
        "min_rmin": float(rmin.min(initial=np.inf)),
        "max_lam": float(lam.max(initial=0.0)),
        "max_rmax_lam": float((rmax * lam).max(initial=0.0)),
    }
