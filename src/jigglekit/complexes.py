"""Ordered simplicial complexes in R^N and their subdivisions.

Vertices carry a global order (their index into the vertex table) and every
simplex is stored as a strictly increasing tuple of vertex ids.  Complexes are
face closed: storing a top simplex stores all of its faces.

The two subdivision operators, crystalline and barycentric, both return the
child complex together with a :class:`SubdivisionMap` that remembers exact
rational barycentric supports for every child vertex.  Exactness is what makes
subdivision well defined on shared faces: a child vertex produced from two
different parent simplices gets the same support key and therefore the same
id and the same floating point coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

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


# ---------------------------------------------------------------------------
# basic simplex geometry
# ---------------------------------------------------------------------------

def simplex_volume(coords: np.ndarray) -> float:
    """Unsigned m-volume of the simplex spanned by the rows of ``coords``."""
    pts = np.asarray(coords, dtype=float)
    m = pts.shape[0] - 1
    if m == 0:
        return 0.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram))
    if det < 0.0:
        det = 0.0
    vol = np.sqrt(det)
    for i in range(2, m + 1):
        vol /= i
    return float(vol)


def point_to_affine_span(point: np.ndarray, coords: np.ndarray) -> float:
    """Distance from ``point`` to the affine span of the rows of ``coords``."""
    pts = np.asarray(coords, dtype=float)
    base = pts[0]
    rel = np.asarray(point, dtype=float) - base
    if pts.shape[0] == 1:
        return float(np.linalg.norm(rel))
    dirs = pts[1:] - base
    q, _ = np.linalg.qr(dirs.T, mode="reduced")
    proj = q @ (q.T @ rel)
    return float(np.linalg.norm(rel - proj))


@dataclass(frozen=True)
class ShapeStats:
    """Shape numbers of a single simplex: rmin, rmax and the coefficient
    amplification factor lam (how large barycentric-direction coefficients can
    get for a unit displacement)."""

    rmin: float
    rmax: float
    lam: float


def shape_stats(coords: np.ndarray) -> ShapeStats:
    """Compute :class:`ShapeStats` for a simplex of dimension >= 1.

    ``lam`` is the maximum over coefficient vectors lambda with
    ``|sum_i lambda_i (v_i - v_0)| = 1`` of ``max_i |lambda_i|``; for a
    non-degenerate simplex this equals the largest Euclidean row norm of the
    pseudo-inverse of the edge matrix.
    """
    pts = np.asarray(coords, dtype=float)
    m = pts.shape[0] - 1
    if m < 1:
        raise DegenerateSimplex("shape_stats needs a simplex of dimension >= 1")
    rmax = 0.0
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            rmax = max(rmax, float(np.linalg.norm(pts[i] - pts[j])))
    rmin = np.inf
    for i in range(m + 1):
        others = np.delete(pts, i, axis=0)
        rmin = min(rmin, point_to_affine_span(pts[i], others))
    if not (rmin > DEGENERACY_REL_TOL * rmax) or rmax == 0.0:
        raise DegenerateSimplex(
            f"simplex is degenerate (rmin={rmin:.3e}, rmax={rmax:.3e})"
        )
    edges = (pts[1:] - pts[0]).T  # N x m
    pinv = np.linalg.pinv(edges)
    lam = float(np.max(np.linalg.norm(pinv, axis=1)))
    return ShapeStats(rmin=float(rmin), rmax=rmax, lam=lam)


# ---------------------------------------------------------------------------
# the complex itself
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """A finite simplicial complex embedded in R^N.

    Construct through :func:`build_complex`; the raw constructor trusts its
    input (used by the subdivision code, which is correct by construction).
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
        by_dim: dict[int, set[tuple[int, ...]]] = {}
        for simplex in top_simplices:
            s = tuple(sorted(simplex))
            if len(set(s)) != len(s):
                raise FaceIntersectionViolation(f"repeated vertex in simplex {simplex}")
            if s and (s[0] < 0 or s[-1] >= len(self.vertices)):
                raise QueryNotInComplex(f"vertex id out of range in {simplex}")
            for r in range(1, len(s) + 1):
                for face in itertools.combinations(s, r):
                    by_dim.setdefault(r - 1, set()).add(face)
        self._simplices: dict[int, tuple[tuple[int, ...], ...]] = {
            d: tuple(sorted(faces)) for d, faces in sorted(by_dim.items())
        }
        self._membership = {s for faces in self._simplices.values() for s in faces}
        tops = []
        covered: set[tuple[int, ...]] = set()
        for d in sorted(self._simplices, reverse=True):
            for s in self._simplices[d]:
                if s in covered:
                    continue
                tops.append(s)
                for r in range(1, len(s)):
                    covered.update(itertools.combinations(s, r))
        self._tops = tuple(sorted(tops, key=lambda s: (-len(s), s)))
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

    def _incident(self, vid: int) -> tuple[tuple[int, ...], ...]:
        if self._vertex_to_simplices is None:
            table: dict[int, list[tuple[int, ...]]] = {}
            for s in self.all_simplices():
                for v in s:
                    table.setdefault(v, []).append(s)
            self._vertex_to_simplices = {v: tuple(ss) for v, ss in table.items()}
        return self._vertex_to_simplices.get(vid, ())

    def containing_top_simplex(self, point, tol: float = 1e-9):
        """Locate a top simplex containing ``point`` (barycentric test)."""
        p = np.asarray(point, dtype=float)
        best = None
        best_defect = np.inf
        for s in self._tops:
            b, defect = barycentric_coordinates(self.coords(s), p)
            worst = max(defect, -min(float(np.min(b)), 0.0))
            if worst < best_defect:
                best, best_defect = s, worst
            if worst <= tol:
                return s
        if best is not None and best_defect <= 1e-6:
            return best
        raise QueryNotInComplex(f"point {p.tolist()} is not in the complex")


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


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def relative_interiors_intersect(a: np.ndarray, b: np.ndarray,
                                 tol: float = _INTERIOR_TOL) -> bool:
    """Decide whether the relative interiors of two simplices intersect.

    Solved as a small LP: find barycentric weights for both simplices that
    meet in one point while keeping every weight at least ``t``; the interiors
    intersect iff the optimal ``t`` is positive.
    """
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    shift = np.mean(np.vstack([pa, pb]), axis=0)
    scale = max(
        float(np.max(np.abs(pa - shift))),
        float(np.max(np.abs(pb - shift))),
        1.0,
    )
    pa = (pa - shift) / scale
    pb = (pb - shift) / scale
    na, nb = pa.shape[0], pb.shape[0]
    dim = pa.shape[1]
    nvar = na + nb + 1
    c = np.zeros(nvar)
    c[-1] = -1.0
    a_eq = np.zeros((dim + 2, nvar))
    a_eq[:dim, :na] = pa.T
    a_eq[:dim, na:na + nb] = -pb.T
    a_eq[dim, :na] = 1.0
    a_eq[dim + 1, na:na + nb] = 1.0
    b_eq = np.zeros(dim + 2)
    b_eq[dim] = 1.0
    b_eq[dim + 1] = 1.0
    a_ub = np.zeros((na + nb, nvar))
    a_ub[:na, :na] = -np.eye(na)
    a_ub[na:, na:na + nb] = -np.eye(nb)
    a_ub[:, -1] = 1.0
    b_ub = np.zeros(na + nb)
    bounds = [(0.0, 1.0)] * (na + nb) + [(None, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        return False
    return float(res.x[-1]) > tol


def _bboxes(coord_list):
    lo = np.array([np.min(c, axis=0) for c in coord_list])
    hi = np.array([np.max(c, axis=0) for c in coord_list])
    return lo, hi


def _sat_group(pa: np.ndarray, pb: np.ndarray, tol: float) -> np.ndarray:
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
    nothing and every pair goes to the exact test.

    Strict separation along any axis keeps even the closures apart.  Weak
    separation certifies too, provided one simplex has positive extent
    along the axis: a linear functional attaining its extremum at a
    relative interior point is constant, so touching is then confined to
    boundaries.  Returns a boolean per pair; False is not a verdict, the
    caller must still run the exact test.
    """
    m, ka, n = pa.shape
    kb = pb.shape[1]
    scale = np.maximum(
        1.0,
        np.maximum(np.abs(pa).max(axis=(1, 2)), np.abs(pb).max(axis=(1, 2))),
    )
    gap = (tol * scale)[:, None]
    ra, sa = np.triu_indices(ka, 1)
    rb, sb = np.triu_indices(kb, 1)
    base = pa[:, :1] - pb[:, :1]
    edges = np.concatenate([pa[:, sa] - pa[:, ra], pb[:, sb] - pb[:, rb]],
                           axis=1)
    if n == 2:
        normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    else:
        flat = max(ka, kb) <= n
        dirs = np.concatenate([base, edges], axis=1) if flat else edges
        i, j = np.triu_indices(dirs.shape[1], 1)
        normals = np.cross(dirs[:, i], dirs[:, j])
        if flat and i.size:
            w = np.linalg.norm(normals, axis=2).argmax(axis=1)
            widest = normals[np.arange(m), w][:, None]
            normals = np.concatenate([normals, np.cross(widest, dirs)], axis=1)
    axes = np.concatenate([base, edges, normals], axis=1)
    norms = np.linalg.norm(axes, axis=2)
    keep = norms > 1e-14 * scale[:, None]
    axes = axes / np.where(keep, norms, 1.0)[..., None]
    da = np.einsum("mkn,man->mka", pa, axes)
    db = np.einsum("mkn,man->mka", pb, axes)
    a0, a1 = da.min(axis=1), da.max(axis=1)
    b0, b1 = db.min(axis=1), db.max(axis=1)
    strict = (a1 <= b0 - gap) | (b1 <= a0 - gap)
    extent = (a1 - a0 > gap) | (b1 - b0 > gap)
    weak = (a1 <= b0 + gap) | (b1 <= a0 + gap)
    return ((strict | (extent & weak)) & keep).any(axis=1)


_SAT_CHUNK = 4096


def _sat_disjoint_many(pairs, coords, tol: float) -> np.ndarray:
    """Run the separating-axis certificate over indexed candidate pairs.

    ``pairs`` holds (i, j) indices into ``coords``; pairs are grouped by
    their vertex-count signature so each group runs as one batch.
    """
    out = np.zeros(len(pairs), dtype=bool)
    if not pairs or coords[pairs[0][0]].shape[1] not in (2, 3):
        return out
    groups: dict[tuple[int, int], list[int]] = {}
    for t, (i, j) in enumerate(pairs):
        key = (coords[i].shape[0], coords[j].shape[0])
        groups.setdefault(key, []).append(t)
    for ts in groups.values():
        for lo_t in range(0, len(ts), _SAT_CHUNK):
            chunk = ts[lo_t:lo_t + _SAT_CHUNK]
            pa = np.stack([coords[pairs[t][0]] for t in chunk])
            pb = np.stack([coords[pairs[t][1]] for t in chunk])
            out[chunk] = _sat_group(pa, pb, tol)
    return out


def find_interior_overlap(simplices: list[tuple[int, ...]],
                          vertex_coords: np.ndarray,
                          tol: float = _INTERIOR_TOL):
    """Find a pair of simplices whose relative interiors intersect.

    ``simplices`` index into ``vertex_coords`` (which need not be the
    complex's own table: image coordinates reuse this for embedding checks).
    Pairs in a face relation are skipped.  The rest go through bounding
    boxes, then the separating-axis certificate, then the exact LP.
    Returns the first overlapping pair in (i, j) order, or None.
    """
    sims = list(simplices)
    coords = [vertex_coords[list(s)] for s in sims]
    if not sims:
        return None
    lo, hi = _bboxes(coords)
    pad = tol * max(1.0, float(np.max(hi - lo)))
    sets = [set(s) for s in sims]
    candidates = []
    for i in range(len(sims)):
        overlap = np.all(lo[i] <= hi + pad, axis=1) & np.all(lo <= hi[i] + pad, axis=1)
        for j in np.flatnonzero(overlap[i + 1:]) + i + 1:
            if sets[i] <= sets[j] or sets[j] <= sets[i]:
                continue
            candidates.append((i, j))
    certified = _sat_disjoint_many(candidates, coords, tol)
    for (i, j), ok in zip(candidates, certified):
        if not ok and relative_interiors_intersect(coords[i], coords[j], tol):
            return sims[i], sims[j]
    return None


def validate_complex(complex_: SimplicialComplex, tol: float = _INTERIOR_TOL):
    """Check the two geometric complex invariants.

    Raises :class:`DegenerateSimplex` when a maximal simplex is flat and
    :class:`FaceIntersectionViolation` when two simplices meet in a set that
    is not a common face (equivalently: their relative interiors intersect
    although they are not the same simplex).
    """
    for s in complex_.top_simplices:
        if len(s) >= 2:
            shape_stats(complex_.coords(s))  # raises DegenerateSimplex
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

Support = tuple[tuple[int, Fraction], ...]


@dataclass
class SubdivisionMap:
    """Exact bookkeeping for a subdivision step.

    ``vertex_support`` maps every child vertex id onto its barycentric support
    in parent vertices; the support determines the minimal parent carrier face
    of any child simplex (the union of its vertices' supports).
    """

    parent: SimplicialComplex
    child: SimplicialComplex
    vertex_support: dict[int, Support]


class _VertexInterner:
    """Dedup table for subdivision vertices keyed by exact rational support."""

    def __init__(self, parent: SimplicialComplex):
        self.parent = parent
        self.coords: list[np.ndarray] = [parent.vertices[i] for i in range(parent.num_vertices)]
        self.support: dict[int, Support] = {
            i: ((i, Fraction(1)),) for i in range(parent.num_vertices)
        }
        self._table: dict[Support, int] = {
            ((i, Fraction(1)),): i for i in range(parent.num_vertices)
        }

    def intern(self, support: Support) -> int:
        vid = self._table.get(support)
        if vid is not None:
            return vid
        point = np.zeros(self.parent.ambient_dim)
        for gid, frac in support:
            point = point + float(frac) * self.parent.vertices[gid]
        vid = len(self.coords)
        self.coords.append(point)
        self.support[vid] = support
        self._table[support] = vid
        return vid

    def build(self, child_tops: list[tuple[int, ...]]) -> tuple[SimplicialComplex, dict[int, Support]]:
        child = SimplicialComplex(self.parent.ambient_dim,
                                  np.array(self.coords), child_tops)
        return child, dict(self.support)


# ---------------------------------------------------------------------------
# crystalline subdivision
# ---------------------------------------------------------------------------

def _identity_subdivision(complex_: SimplicialComplex) -> SubdivisionMap:
    support = {i: ((i, Fraction(1)),) for i in range(complex_.num_vertices)}
    return SubdivisionMap(parent=complex_, child=complex_, vertex_support=support)


def compose_subdivisions(first: SubdivisionMap, second: SubdivisionMap) -> SubdivisionMap:
    """Chain two subdivision steps into one exact map.

    ``second`` must subdivide ``first.child``; the result maps
    ``second.child`` vertices onto supports over ``first.parent`` with exact
    rational weights.
    """
    if second.parent is not first.child:
        raise DomainMismatch("subdivision maps do not chain")
    support: dict[int, Support] = {}
    for vid, outer in second.vertex_support.items():
        acc: dict[int, Fraction] = {}
        for mid, w in outer:
            for gid, inner_w in first.vertex_support[mid]:
                acc[gid] = acc.get(gid, Fraction(0)) + w * inner_w
        support[vid] = tuple(sorted(acc.items()))
    return SubdivisionMap(parent=first.parent, child=second.child,
                          vertex_support=support)


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
        return complex_, _identity_subdivision(complex_)
    scale = 2 ** levels
    interner = _VertexInterner(complex_)
    child_tops: list[tuple[int, ...]] = []
    for top in sorted(complex_.top_simplices):
        m = len(top) - 1
        if m == 0:
            child_tops.append(top)
            continue
        for z in itertools.product(range(scale), repeat=m):
            for chain in itertools.permutations(range(m)):
                # staircase vertices of the permutation cell, integer coords
                cube_vertices = [list(z)]
                for t in range(m):
                    nxt = list(cube_vertices[-1])
                    nxt[chain[m - 1 - t]] += 1
                    cube_vertices.append(nxt)
                csum = [sum(v[i] for v in cube_vertices) for i in range(m)]
                if any(csum[i] >= csum[i + 1] for i in range(m - 1)):
                    continue
                ids = []
                for u in cube_vertices:
                    ns = (0, *u, scale)
                    support = tuple(
                        (top[j], Fraction(ns[j + 1] - ns[j], scale))
                        for j in range(m + 1)
                        if ns[j + 1] != ns[j]
                    )
                    ids.append(interner.intern(support))
                child_tops.append(tuple(sorted(ids)))
    child, support = interner.build(child_tops)
    return child, SubdivisionMap(parent=complex_, child=child, vertex_support=support)


# ---------------------------------------------------------------------------
# barycentric subdivision
# ---------------------------------------------------------------------------

def barycentric_subdivide(complex_: SimplicialComplex):
    """One barycentric subdivision; every m-simplex becomes (m+1)! children."""
    interner = _VertexInterner(complex_)

    def face_barycenter(face: tuple[int, ...]) -> int:
        frac = Fraction(1, len(face))
        return interner.intern(tuple((g, frac) for g in face))

    child_tops: list[tuple[int, ...]] = []
    for top in sorted(complex_.top_simplices):
        if len(top) == 1:
            child_tops.append(top)
            continue
        for perm in itertools.permutations(top):
            chain_ids = []
            for r in range(1, len(perm) + 1):
                chain_ids.append(face_barycenter(tuple(sorted(perm[:r]))))
            child_tops.append(tuple(sorted(chain_ids)))
    child, support = interner.build(child_tops)
    return child, SubdivisionMap(parent=complex_, child=child, vertex_support=support)


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
    max_rmax = 0.0
    min_rmin = np.inf
    max_lam = 0.0
    max_product = 0.0
    for s in complex_.top_simplices:
        if len(s) < 2:
            continue
        st = shape_stats(complex_.coords(s))
        max_rmax = max(max_rmax, st.rmax)
        min_rmin = min(min_rmin, st.rmin)
        max_lam = max(max_lam, st.lam)
        max_product = max(max_product, st.rmax * st.lam)
    return {
        "max_rmax": max_rmax,
        "min_rmin": float(min_rmin),
        "max_lam": max_lam,
        "max_rmax_lam": max_product,
    }
