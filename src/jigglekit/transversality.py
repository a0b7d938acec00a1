"""Transversality predicates and quantitative margins.

Everything here measures one thing: how far a simplex (or a join with a
movable apex) is from failing transversality against a constant foliation
F(V) or a varying plane distribution xi.  Margins come in two currencies:

* ``semitrans_margin``: a length; how far the apex of a join may move.
* ``eps_margin``: a Grassmannian distance; how far the simplex's plane may
  move.  The value returned is a certified lower bound (smallest principal
  angle), never an estimate from sampling.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSimplex,
    NotTransverse,
    PreconditionViolated,
    QueryNotInComplex,
)
from .grassmann import (
    RANK_REL_TOL,
    AffineFlat,
    Plane,
    affine_span,
    is_transverse_planes,
    plane_from_spanning,
    point_flat_distance,
    project_along,
)

DEFAULT_SAMPLE_DEPTH = 3


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class Distribution:
    """A field of k-planes on R^n.

    ``kind`` is one of ``constant``, ``builtin``, ``sampled``; constant
    fields unlock cheap verification paths (one evaluation suffices).
    """

    def __init__(self, ambient_dim: int, rank: int, kind: str, evaluator,
                 name: str = ""):
        self.ambient_dim = int(ambient_dim)
        self.rank = int(rank)
        self.kind = kind
        self.name = name
        self._eval = evaluator

    def plane_at(self, point) -> Plane:
        plane = self._eval(np.asarray(point, dtype=float))
        if plane.rank != self.rank or plane.ambient_dim != self.ambient_dim:
            raise PreconditionViolated(
                "distribution evaluator returned a plane of wrong rank or dim"
            )
        return plane

    @staticmethod
    def constant(plane: Plane, name: str = "constant") -> "Distribution":
        return Distribution(plane.ambient_dim, plane.rank, "constant",
                            lambda _p: plane, name=name)

    def __repr__(self) -> str:
        return f"Distribution({self.name or self.kind}, n={self.ambient_dim}, k={self.rank})"


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

@functools.cache
def barycentric_lattice(num_vertices: int, depth: int) -> np.ndarray:
    """All barycentric weight vectors with denominators ``depth``.

    Includes the vertices themselves; ``depth=0`` gives the barycenter only.
    Built once per argument pair; the array is read-only.
    """
    if depth <= 0:
        weights = np.full((1, num_vertices), 1.0 / num_vertices)
    else:
        combos = []
        for cuts in itertools.combinations(range(depth + num_vertices - 1),
                                           num_vertices - 1):
            prev = -1
            parts = []
            for c in (*cuts, depth + num_vertices - 1):
                parts.append(c - prev - 1)
                prev = c
            combos.append(parts)
        weights = np.array(combos, dtype=float) / depth
    weights.setflags(write=False)
    return weights


def sample_points(coords: np.ndarray, depth: int) -> np.ndarray:
    weights = barycentric_lattice(coords.shape[0], depth)
    return weights @ coords


def probe_points(coords: np.ndarray, xi: Distribution, depth: int) -> np.ndarray:
    """Where xi is probed over a simplex: one vertex for a constant field
    (the plane is the same everywhere), the depth-``depth`` barycentric
    lattice otherwise."""
    if xi.kind == "constant":
        return coords[:1]
    return sample_points(coords, depth)


# ---------------------------------------------------------------------------
# plane of a simplex, basic predicates
# ---------------------------------------------------------------------------

def simplex_plane(coords: np.ndarray) -> Plane:
    """The direction plane Gr of a simplex of dimension >= 1."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape[0] < 2:
        raise DegenerateSimplex("a 0-simplex has no direction plane")
    try:
        return plane_from_spanning(pts[1:] - pts[0])
    except Exception as exc:
        raise DegenerateSimplex(f"simplex directions are dependent: {exc}") from exc


def _faces_of_dim(num_vertices: int, d: int):
    return itertools.combinations(range(num_vertices), d + 1)


def simplex_transverse(coords: np.ndarray, v: Plane, tol: float = 1e-9) -> bool:
    """Transversality of a simplex to the constant foliation F(V).

    Dimension at most n-k: the direction planes must be transverse.  Above
    n-k it suffices that one (n-k)-dimensional face is transverse.
    """
    pts = np.asarray(coords, dtype=float)
    dim = pts.shape[0] - 1
    free = v.ambient_dim - v.rank
    if dim == 0:
        return True
    if dim <= free:
        return is_transverse_planes(simplex_plane(pts), v, tol)
    if free == 0:
        return False
    return any(
        is_transverse_planes(simplex_plane(pts[list(face)]), v, tol)
        for face in _faces_of_dim(pts.shape[0], free)
    )


def _face_margin(gr: Plane, v: Plane, tol: float) -> float | None:
    """The eps margin of a simplex of dimension 1..n-k with direction plane
    ``gr``, or None if it is not transverse to V."""
    if not is_transverse_planes(gr, v, tol):
        return None
    rejected = gr.basis - (gr.basis @ v.basis.T) @ v.basis
    s = np.linalg.svd(rejected, compute_uv=False)
    return float(s[-1])


def eps_margin(coords: np.ndarray, v: Plane) -> float:
    """Certified radius of transversality in the d_proj metric.

    Any plane within this d_proj distance of the simplex's plane is still
    transverse to V.  Computed as the sine of the smallest principal angle
    between the two subspaces: for a unit vector w in D cap V one has
    d_proj(Gr, D) >= dist(w, Gr) >= sin(theta_min).  Returns infinity for
    0-simplices (nothing can fail).
    """
    pts = np.asarray(coords, dtype=float)
    dim = pts.shape[0] - 1
    if dim == 0:
        return np.inf
    if dim > v.ambient_dim - v.rank:
        raise PreconditionViolated(
            "eps_margin expects dim <= n-k; use faces for larger simplices"
        )
    margin = _face_margin(simplex_plane(pts), v, RANK_REL_TOL)
    if margin is None:
        raise NotTransverse("simplex plane is not transverse to V")
    return margin


# ---------------------------------------------------------------------------
# joins with a movable apex
# ---------------------------------------------------------------------------

def _check_join_preconditions(p, coords, v: Plane):
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    dim = pts.shape[0] - 1
    free = v.ambient_dim - v.rank
    if dim + 1 > free:
        raise PreconditionViolated(
            f"join dimension {dim + 1} exceeds n-k = {free}"
        )
    if not simplex_transverse(pts, v):
        raise PreconditionViolated("base simplex is not transverse to F(V)")
    return np.asarray(p, dtype=float), pts


def join_transverse_by_projection(p, coords, v: Plane, tol: float = 1e-9) -> bool:
    """Transversality of the join <p, Delta> decided by projection criteria.

    Two equivalent criteria are evaluated and cross-checked: the image of p
    under the quotient by V must avoid the projected affine span of Delta,
    and symmetrically p's image under the quotient by Delta's directions
    must avoid the projected V (anchored at a vertex of Delta).
    """
    point, pts = _check_join_preconditions(p, coords, v)

    proj_p = project_along(v, point)
    proj_span = project_along(v, pts)
    flat_v = affine_span(proj_span) if pts.shape[0] > 1 else AffineFlat(proj_span[0], None)
    crit_v = point_flat_distance(proj_p, flat_v) > tol * _scale(point, pts)

    if pts.shape[0] == 1:
        # quotient by a 0-dimensional span: nothing to quotient, compare
        # p against V anchored at the single vertex
        crit_d = point_flat_distance(point, AffineFlat(pts[0], v)) > tol * _scale(point, pts)
    else:
        gr = simplex_plane(pts)
        qp = project_along(gr, point)
        base = project_along(gr, pts[0])
        vbasis_q = project_along(gr, v.basis)
        nz = np.linalg.norm(vbasis_q, axis=1)
        keep = vbasis_q[nz > tol]
        if len(keep) == 0:
            flat_d = AffineFlat(base, None)
        else:
            flat_d = AffineFlat(base, plane_from_spanning(keep))
        crit_d = point_flat_distance(qp, flat_d) > tol * _scale(point, pts)

    direct = simplex_transverse(np.vstack([point[None, :], pts]), v, tol) \
        if not _apex_degenerate(point, pts, tol) else False
    if crit_v != crit_d:
        # the two criteria agree mathematically; numerical disagreement is a
        # borderline configuration, resolved by the direct rank test
        return direct
    return crit_v


def _apex_degenerate(point, pts, tol) -> bool:
    flat = affine_span(pts)
    return point_flat_distance(point, flat) <= tol * _scale(point, pts)


def _scale(point, pts) -> float:
    return max(1.0, float(np.max(np.abs(pts))), float(np.max(np.abs(point))))


def semitrans_margin(p, coords, v: Plane) -> float:
    """The exact distance from pi_V(p) to pi_V(ASpan Delta).

    The apex can move anywhere within this distance (in ambient space, since
    the quotient projection is 1-Lipschitz) while the join <p', Delta> stays
    non-degenerate and transverse to F(V).
    """
    point, pts = _check_join_preconditions(p, coords, v)
    proj_p = project_along(v, point)
    proj_span = project_along(v, pts)
    flat = affine_span(proj_span) if pts.shape[0] > 1 else AffineFlat(proj_span[0], None)
    return point_flat_distance(proj_p, flat)


# ---------------------------------------------------------------------------
# stratified transversality and general position
# ---------------------------------------------------------------------------

def stratified_transverse(coords: np.ndarray, v: Plane, tol: float = 1e-9) -> bool:
    """All faces of the simplex are transverse to F(V)."""
    return general_position(coords, Distribution.constant(v), tol=tol)[0]


def general_position(coords: np.ndarray, xi: Distribution,
                     sample_depth: int = DEFAULT_SAMPLE_DEPTH,
                     tol: float = RANK_REL_TOL):
    """Sampled check of general position of one simplex against xi.

    Every face must be transverse to the frozen plane xi(x) for each probe
    point x of the simplex (``probe_points``), that is, the simplex is
    stratified transverse at every probe.  Only faces of dimension <= n-k are
    tested: a larger face is transverse exactly when one of its (n-k)-faces
    is, and for n-k = 0 every simplex of dimension >= 1 fails.  Returns
    ``(ok, margin)`` where margin is the smallest certified eps_margin of
    those faces.  A face's verdict is one float SVD of its basis stacked
    with xi(x)'s, where singular values at most ``tol`` times the largest
    count as lost rank.  For a constant field that test runs at a single
    probe, for a varying field at every sampled probe; neither is a proof
    (ROADMAP item 7).
    """
    return _general_position(np.asarray(coords, dtype=float), xi,
                             sample_depth, tol, {})


_MISSING = object()


def _memoized(memo: dict, key, compute, *args):
    """``compute(*args)``, computed on the first request for ``key`` only."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(*args)
    return value


def _general_position(pts: np.ndarray, xi: Distribution, sample_depth: int,
                      tol: float, memo: dict):
    """``general_position`` with every value it computes kept in ``memo``,
    keyed by the exact bytes it is computed from: the field plane by the
    field and the probe point, the face plane by the face coordinates, the
    face margin by those and the field plane's basis (with its shape, since
    fields of different rank and ambient dimension may share a memo).
    Calls that share a memo must share ``tol``."""
    free = xi.ambient_dim - xi.rank
    if free == 0 and pts.shape[0] > 1:
        return False, 0.0
    margin = np.inf
    for x in probe_points(pts, xi, sample_depth):
        plane = _memoized(memo, ("field", xi, x.tobytes()), xi.plane_at, x)
        basis = (plane.basis.shape, plane.basis.tobytes())
        for d in range(1, min(pts.shape[0] - 1, free) + 1):
            for face in _faces_of_dim(pts.shape[0], d):
                f = pts[list(face)]
                fkey = f.tobytes()
                m = memo.get(("margin", fkey, basis), _MISSING)
                if m is _MISSING:
                    gr = _memoized(memo, ("face", fkey), simplex_plane, f)
                    m = memo[("margin", fkey, basis)] = _face_margin(gr, plane, tol)
                if m is None:
                    return False, 0.0
                margin = min(margin, m)
    return True, float(margin)


# ---------------------------------------------------------------------------
# margin transfer arithmetic
# ---------------------------------------------------------------------------

def transfer_margins(kind: str, gamma: float = 0.0, beta: float = 0.0,
                     r: float = 0.0, shape=None, delta: float = 0.0,
                     c: float = 1.0) -> float:
    """Pure arithmetic converting margins between settings.

    kinds:
      fol_change      margin surviving a foliation change of oscillation beta
                      over radius r: gamma - beta*r
      simplex_change  margin surviving moving the whole simplex within r:
                      gamma - 2*beta*r
      zeta            join margin from a semitransversality margin delta and
                      shape stats: c * min(delta, rmin, delta/(lam*rmax))
      eps_from_zeta   Grassmannian margin from a join margin zeta = delta:
                      c * delta / rmax
    All results clamp at zero.
    """
    if kind == "fol_change":
        out = gamma - beta * r
    elif kind == "simplex_change":
        out = gamma - 2.0 * beta * r
    elif kind == "zeta":
        if shape is None:
            raise ValueError("zeta transfer needs shape stats")
        out = c * min(delta, shape.rmin,
                      delta / (shape.lam * shape.rmax))
    elif kind == "eps_from_zeta":
        if shape is None:
            raise ValueError("eps_from_zeta transfer needs shape stats")
        out = c * delta / shape.rmax
    else:
        raise ValueError(f"unknown transfer kind {kind!r}")
    return max(out, 0.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class SimplexRecord:
    simplex: tuple
    dim: int
    transverse: bool
    eps_margin: float
    semitrans_margin: float | None = None
    general_position: bool | None = None
    certified: bool = False

    def to_json(self) -> dict:
        return {
            "simplex": list(self.simplex),
            "dim": self.dim,
            "transverse": self.transverse,
            "eps_margin": None if np.isinf(self.eps_margin) else self.eps_margin,
            "semitrans_margin": self.semitrans_margin,
            "general_position": self.general_position,
            "certified": self.certified,
        }


@dataclass
class TransversalityReport:
    records: list[SimplexRecord] = field(default_factory=list)
    min_eps_margin: float = np.inf
    min_semitrans_margin: float | None = None
    margin_tol: float = 0.0
    sampled: bool = True
    passed: bool = False

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
            "min_eps_margin": None if np.isinf(self.min_eps_margin) else self.min_eps_margin,
            "min_semitrans_margin": self.min_semitrans_margin,
            "margin_tol": self.margin_tol,
            "sampled": self.sampled,
            "pass": self.passed,
        }


def transversality_report(complex_, vertex_images: np.ndarray,
                          xi: Distribution | dict,
                          sample_depth: int = DEFAULT_SAMPLE_DEPTH,
                          margin_tol: float = 0.0,
                          certificates: dict | None = None) -> TransversalityReport:
    """Assemble per-simplex transversality records for a mapped complex.

    ``vertex_images`` is the image of each complex vertex (a PL map's data).
    ``xi`` is one Distribution for every top simplex, or a dict from the top
    simplices to examine to their fields.  Each face of an examined top gets
    one record, judged against every distinct field of the examined tops
    that contain it: transverse when it is so against all of them, with the
    smallest of their margins.  ``certificates`` optionally carries
    semitransversality margins per simplex (from the perturbation search);
    records holding one are marked certified.

    Faces shared between records are judged once: within one call, each
    field plane, face plane and face margin is computed once, keyed by the
    exact bytes of its inputs, so every record equals what
    ``general_position`` returns for it on its own.
    """
    certificates = certificates or {}
    fields = dict.fromkeys(complex_.top_simplices, xi) \
        if isinstance(xi, Distribution) else xi
    unknown = set(fields) - set(complex_.top_simplices)
    if unknown:
        raise QueryNotInComplex(f"{sorted(unknown)} are not top simplices")
    face_fields: dict[tuple, dict] = {}
    for top, dist in fields.items():
        for r in range(1, len(top) + 1):
            for face in itertools.combinations(top, r):
                face_fields.setdefault(face, {})[dist] = None
    report = TransversalityReport(
        margin_tol=margin_tol,
        sampled=any(d.kind != "constant" for d in fields.values()))
    min_eps = np.inf
    min_semi = None
    all_ok = True
    memo: dict = {}
    for s in sorted(face_fields, key=lambda t: (len(t), t)):
        pts = np.asarray(vertex_images[list(s)], dtype=float)
        verdicts = [_general_position(pts, d, sample_depth, RANK_REL_TOL, memo)
                    for d in face_fields[s]]
        ok = all(v for v, _ in verdicts)
        cert = certificates.get(s)
        semi = None
        if cert is not None:
            semi = float(cert)
            min_semi = semi if min_semi is None else min(min_semi, semi)
        rec = SimplexRecord(
            simplex=s, dim=len(s) - 1, transverse=ok,
            eps_margin=min(m for _, m in verdicts) if ok else 0.0,
            semitrans_margin=semi,
            general_position=ok if len(s) - 1 >= 1 else None,
            certified=cert is not None,
        )
        report.records.append(rec)
        if len(s) >= 2:
            min_eps = min(min_eps, rec.eps_margin)
        all_ok = all_ok and ok
    report.min_eps_margin = float(min_eps)
    report.min_semitrans_margin = min_semi
    report.passed = bool(all_ok and min_eps > margin_tol)
    return report
