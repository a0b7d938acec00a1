"""Transversality predicates and quantitative margins.

Everything here measures one thing: how far a simplex (or a join with a
movable apex) is from failing transversality against a constant foliation
F(V) or a varying plane distribution xi.  Margins come in two currencies:

* ``semitrans_margin``: a length; how far the apex of a join may move.
* the eps margin of a face (``general_position``, the report's records): a
  Grassmannian distance; any plane within this d_proj distance of the
  face's plane Gr is still transverse to V.  It is the sine of the smallest
  principal angle between the two subspaces: for a unit vector w in D cap V
  one has d_proj(Gr, D) >= dist(w, Gr) >= sin(theta_min).  So it is a
  certified lower bound, never an estimate from sampling.

``transversality_report`` judges every face of a mapped complex and keeps
the verdicts and margins as columns aligned with its records.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .complexes import _combinations, _distinct, _face_tables, _unique_rows
from .errors import (
    DegenerateSimplex,
    PreconditionViolated,
    QueryNotInComplex,
    RankDeficient,
)
from .grassmann import (
    NOT_ORTHONORMAL,
    RANK_REL_TOL,
    AffineFlat,
    Plane,
    _orthonormal,
    _project_flat,
    _rejection_norms,
    _row_spaces,
    _stack,
    _transverse,
    affine_span,
    point_flat_distance,
    project_along,
)

DEFAULT_SAMPLE_DEPTH = 3
# the most (pair, probe, face) entries one pass of _general_positions judges
PASS_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class Distribution:
    """A field of k-planes on R^n.

    ``kind`` is one of ``constant``, ``builtin``, ``sampled``; constant
    fields unlock cheap verification paths (one evaluation suffices).

    ``evaluator`` maps a point (n,) to its :class:`Plane`.  With
    ``stacked`` it maps a (P, n) stack of points to the (P, k, n) stack of
    their orthonormal bases instead, as the builtin fields do: then every
    stack is checked by the rule of :class:`Plane`, all at once.
    :meth:`bases_at` is the one evaluation; :meth:`plane_at` is a stack of
    one of it.
    """

    def __init__(self, ambient_dim: int, rank: int, kind: str, evaluator,
                 name: str = "", *, stacked: bool = False):
        self.ambient_dim = int(ambient_dim)
        self.rank = int(rank)
        self.kind = kind
        self.name = name
        self._eval = evaluator
        self._stacked = stacked

    def bases_at(self, points) -> np.ndarray:
        """The (P, k, n) orthonormal bases of the field at a (P, n) stack of
        points.  It raises the error of the first point where the field
        fails."""
        bases, errors = self._bases(points)
        if errors:
            raise errors[min(errors)]
        return bases

    def plane_at(self, point) -> Plane:
        return Plane(self.bases_at(np.asarray(point, dtype=float)[None])[0])

    def _bases(self, points):
        """:meth:`bases_at` with the failures kept per point: ``(bases,
        errors)``, where ``errors`` maps the index of each point where the
        field fails to its error, and the bases of those points are
        meaningless.  A per-point evaluator is called once per point, in
        order; when a stacked one raises, each point is evaluated on its
        own to find where.  A stack keeps the memory layout its planes
        share, and is in C order when they mix."""
        pts = np.asarray(points, dtype=float)
        shape = (len(pts), self.rank, self.ambient_dim)
        errors: dict = {}
        if not self._stacked:
            bases = []
            for i, p in enumerate(pts):
                try:
                    bases.append(self._basis(self._eval(p)))
                except Exception as exc:  # kept for its point
                    errors[i] = exc
            if not bases:
                return np.zeros(shape), errors
            c_order = all(b.flags.c_contiguous for b in bases)
            for i in errors:
                bases.insert(i, np.zeros(shape[1:]))
            return _stack(bases, c_order), errors
        try:
            bases = self._eval(pts)
        except Exception as exc:  # kept for its point
            if len(pts) == 1:
                return np.zeros(shape), {0: exc}
            parts = [self._bases(p[None]) for p in pts]
            errors = {i: e[0] for i, (_, e) in enumerate(parts) if e}
            return np.concatenate([b for b, _ in parts]), errors
        if not isinstance(bases, np.ndarray) or bases.shape != shape:
            wrong = PreconditionViolated(
                f"stacked distribution evaluator returned {_described(bases)}, "
                f"not {shape} bases")
            return np.zeros(shape), dict.fromkeys(range(len(pts)), wrong)
        for i in np.flatnonzero(~_orthonormal(bases)).tolist():
            errors[i] = RankDeficient(NOT_ORTHONORMAL)
        return bases, errors

    def _basis(self, plane) -> np.ndarray:
        """The basis of a plane a per-point evaluator returned, checked."""
        if not isinstance(plane, Plane):
            raise PreconditionViolated(
                f"distribution evaluator returned {_described(plane)}, not a Plane")
        if plane.rank != self.rank or plane.ambient_dim != self.ambient_dim:
            raise PreconditionViolated(
                "distribution evaluator returned a plane of wrong rank or dim"
            )
        return plane.basis

    @staticmethod
    def constant(plane: Plane, name: str = "constant") -> "Distribution":
        shape = plane.basis.shape
        return Distribution(plane.ambient_dim, plane.rank, "constant",
                            lambda pts: np.broadcast_to(plane.basis, (len(pts),) + shape),
                            name=name, stacked=True)

    def __repr__(self) -> str:
        return f"Distribution({self.name or self.kind}, n={self.ambient_dim}, k={self.rank})"


def _described(value) -> str:
    if isinstance(value, np.ndarray):
        return f"a {value.shape} array"
    return f"a {type(value).__name__}"


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


def probe_points(coords: np.ndarray, xi: Distribution, depth: int) -> np.ndarray:
    """Where xi is probed over a simplex, or each of a stack of simplices:
    one vertex for a constant field (the plane is the same everywhere), the
    depth-``depth`` barycentric lattice otherwise."""
    if xi.kind == "constant":
        return coords[..., :1, :]
    return barycentric_lattice(coords.shape[-2], depth) @ coords


# ---------------------------------------------------------------------------
# plane of a simplex, basic predicates
# ---------------------------------------------------------------------------

def _face_bases(faces: np.ndarray):
    """Orthonormal bases (rows) of the direction planes of an (F, d+1, n)
    stack of simplices with d >= 1, from one stacked :func:`_row_spaces`
    call, and their ranks, -1 for a simplex that is not finite.  A simplex
    is degenerate where its rank is below ``bases.shape[1]``;
    :func:`_degenerate` says why."""
    edges = faces[:, 1:] - faces[:, :1]
    finite = np.isfinite(edges).all(axis=(1, 2))
    edges[~finite] = 0.0
    bases, ranks = _row_spaces(edges)
    return bases, np.where(finite, ranks, -1)


def _degenerate(rank: int, dim: int) -> DegenerateSimplex:
    if rank < 0:
        return DegenerateSimplex("simplex coordinates are not finite")
    return DegenerateSimplex(f"simplex directions are dependent (rank {rank} of {dim})")


def simplex_plane(coords: np.ndarray) -> Plane:
    """The direction plane Gr of a simplex of dimension >= 1: a stack of
    one of :func:`_face_bases`, raising :class:`DegenerateSimplex` where
    the simplex is degenerate."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape[0] < 2:
        raise DegenerateSimplex("a 0-simplex has no direction plane")
    bases, ranks = _face_bases(pts[None])
    if ranks[0] < bases.shape[1]:
        raise _degenerate(int(ranks[0]), bases.shape[1])
    return Plane(bases[0])


def simplex_transverse(coords: np.ndarray, v: Plane,
                       tol: float = RANK_REL_TOL) -> bool:
    """Transversality of a simplex to the constant foliation F(V): a stack
    of one of :func:`_transverse_stack`, raising
    :class:`DegenerateSimplex` where the simplex is degenerate.  A vertex is
    transverse to every foliation."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape[0] == 1:
        return True
    transverse, degenerate = _transverse_stack(pts[None], v, tol)
    if degenerate[0]:
        raise DegenerateSimplex("simplex directions are dependent")
    return bool(transverse[0])


def _transverse_stack(stack: np.ndarray, v, tol: float = RANK_REL_TOL):
    """Transversality of each simplex in an (S, d+1, n) stack with d >= 1
    to F(V), as boolean arrays ``(transverse, degenerate)``; ``v`` is one
    :class:`Plane` or an (S, k, n) stack of orthonormal bases, one per
    simplex.

    Dimension at most n-k: a simplex is degenerate where
    :func:`simplex_plane` raises :class:`DegenerateSimplex` (its edges are
    not finite or are dependent at ``RANK_REL_TOL``), and otherwise
    transverse where its plane passes the rank test at ``tol``.  Above n-k
    it suffices that one (n-k)-dimensional face is transverse: the faces of
    every simplex are judged so in one stack and read in order, and the
    simplex is transverse at its first transverse face and degenerate where
    a degenerate face comes first.  With n-k = 0 nothing is transverse.
    Both SVDs run stacked, which gives every matrix the bits of its own
    call, so each verdict is the one of a simplex alone.
    """
    rows = v.basis if isinstance(v, Plane) else v
    count, size = stack.shape[:2]
    free = rows.shape[-1] - rows.shape[-2]
    if free == 0:
        return np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    if size <= free + 1:
        bases, ranks = _face_bases(stack)
        degenerate = ranks < bases.shape[1]
        return ~degenerate & _transverse(bases, v, tol), degenerate
    combos = _combinations(size, free + 1)
    faces = stack[:, combos].reshape(-1, free + 1, stack.shape[2])
    each = v if isinstance(v, Plane) else np.repeat(v, len(combos), axis=0)
    transverse, degenerate = (a.reshape(count, len(combos))
                              for a in _transverse_stack(faces, each, tol))
    at = np.arange(count), (transverse | degenerate).argmax(axis=1)
    return transverse[at], degenerate[at]


# ---------------------------------------------------------------------------
# joins with a movable apex
# ---------------------------------------------------------------------------

def _check_join_dimension(coords, v: Plane) -> np.ndarray:
    """The base of a join as a 2-D array, checked to span a join of
    dimension at most n-k."""
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    free = v.ambient_dim - v.rank
    if pts.shape[0] > free:
        raise PreconditionViolated(
            f"join dimension {pts.shape[0]} exceeds n-k = {free}"
        )
    return pts


def join_transverse_by_projection(p, coords, v: Plane,
                                  tol: float = RANK_REL_TOL) -> bool:
    """Transversality of the join <p, Delta> decided by projection criteria.

    Two equivalent criteria are evaluated and cross-checked: the image of p
    under the quotient by V must avoid the projected affine span of Delta,
    and symmetrically p's image under the quotient by Delta's directions
    must avoid the projected V (anchored at a vertex of Delta).
    """
    point, pts = np.asarray(p, dtype=float), _check_join_dimension(coords, v)
    if not simplex_transverse(pts, v):
        raise PreconditionViolated("base simplex is not transverse to F(V)")
    bar = tol * _scale(point, pts)
    crit_v = semitrans_margin(point, pts, v) > bar

    # quotient by Delta's directions; a single vertex has none, and p is
    # compared against V anchored at it
    gr = simplex_plane(pts) if pts.shape[0] > 1 else None
    qp = point if gr is None else project_along(gr, point)
    crit_d = point_flat_distance(qp, _project_flat(gr, AffineFlat(pts[0], v), tol)) > bar
    if crit_v != crit_d:
        # the two criteria agree mathematically; numerical disagreement is a
        # borderline configuration, resolved by the direct rank test of a
        # join whose apex is off Delta's span
        return point_flat_distance(point, affine_span(pts)) > bar \
            and simplex_transverse(np.vstack([point[None, :], pts]), v, tol)
    return crit_v


def _scale(point, pts) -> float:
    return max(1.0, float(np.max(np.abs(pts))), float(np.max(np.abs(point))))


def semitrans_margin(p, coords, v: Plane) -> float:
    """The exact distance from pi_V(p) to pi_V(ASpan Delta).

    The apex can move anywhere within this distance (in ambient space, since
    the quotient projection is 1-Lipschitz) while the join <p', Delta> stays
    non-degenerate and transverse to F(V).  A stack of one of
    :func:`_semitrans_margins`.
    """
    pts = _check_join_dimension(coords, v)
    margin, status = _semitrans_margins(np.asarray(p, dtype=float)[None], pts[None],
                                        v.basis[None], v.complement()[None])
    if status[0]:
        raise _join_error(int(status[0]))
    return float(margin[0])


def _join_error(status: int):
    """The error of a :func:`_semitrans_margins` status other than 0."""
    if status == 1:
        return PreconditionViolated("base simplex is not transverse to F(V)")
    return DegenerateSimplex("simplex directions are dependent")


def _semitrans_margins(points: np.ndarray, faces: np.ndarray, bases: np.ndarray,
                       comps: np.ndarray):
    """:func:`semitrans_margin` of each row, bit for bit: the apexes
    ``points`` (R, n), the bases ``faces`` (R, d, n) with d <= n-k, and the
    foliation of row r given by its orthonormal basis ``bases[r]`` (k, n)
    and complement ``comps[r]`` (n-k, n), all of one rank.

    Returns ``(margins, status)``: status 0 where the margin holds, 1 where
    the base is not transverse to its foliation and 2 where it is
    degenerate (the errors :func:`_join_error` names).  The base test is
    one :func:`_transverse_stack`, the quotient projections are one
    stacked product per row (``p @ C.T`` per point and face), the projected
    spans one :func:`_row_spaces` call, and the distances one
    :func:`_rejection_norms` call per span rank.
    """
    rows, d = faces.shape[:2]
    status = np.zeros(rows, dtype=np.int8)
    if d > 1:
        transverse, degenerate = _transverse_stack(faces, bases)
        status[~transverse] = 1
        status[degenerate] = 2
    comp_t = comps.swapaxes(1, 2)
    proj_p = (points[:, None, :] @ comp_t)[:, 0]
    proj = faces @ comp_t
    rel = proj_p - proj[:, 0]
    if d == 1:
        return _rejection_norms(rel, None), status
    margins = np.empty(rows)
    spans, ranks = _row_spaces(proj[:, 1:] - proj[:, :1])
    for r in np.unique(ranks).tolist():
        sel = np.flatnonzero(ranks == r)
        # each basis in Fortran order, as affine_span's Plane holds it
        dirs = np.ascontiguousarray(spans[sel, :r].swapaxes(1, 2)).swapaxes(1, 2)
        margins[sel] = _rejection_norms(rel[sel], dirs if r else None)
    return margins, status


# ---------------------------------------------------------------------------
# stratified transversality and general position
# ---------------------------------------------------------------------------

def stratified_transverse(coords: np.ndarray, v: Plane,
                          tol: float = RANK_REL_TOL) -> bool:
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
    ``(ok, margin)`` where margin is the smallest eps margin of those
    faces: the sine of the smallest principal angle between the face's
    plane and xi(x).  A face's verdict is one float SVD of its basis stacked
    with xi(x)'s, where singular values at most ``tol`` times the largest
    count as lost rank.  For a constant field that test runs at a single
    probe, for a varying field at every sampled probe; neither is a proof
    (ROADMAP items 5 and 6, for constant and for varying fields).

    This is a stack of one of the report's kernel
    (:func:`_general_positions`), which gives what a loop over probes in
    order, and faces in order within a probe, gives: it stops at the first
    face that is not transverse and raises :class:`DegenerateSimplex` when
    a degenerate face comes first.  The kernel runs the probes in passes
    of waves, one wave per probe index, and evaluates the field only at a
    pass's first wave, so a simplex that failed is probed no further.
    The face bases, the SVDs and the rejection products are stacked, each
    operand in its own memory order, which gives each matrix the bits of
    its own call (see :func:`_transverse`).
    """
    pts = np.asarray(coords, dtype=float)
    ok, margin = _general_positions([(np.zeros(1, dtype=int), pts[None], xi)],
                                    sample_depth, tol)
    return bool(ok[0]), float(margin[0])


class _FaceTable:
    """The distinct faces of some stacks of simplices, by coordinate bytes.

    ``groups`` holds ``(pts, top_dim)``: an (R, m+1, n) stack and the
    largest face dimension to take.  ``ids[g]`` is (R, F): the face ids of
    each simplex of group ``g``, by dimension and then in
    ``itertools.combinations`` order.  Ids run over the face sizes in
    increasing order; a face has ``size`` vertices, its basis is
    ``bases[size][local]`` (one :func:`_face_bases` call per size), its
    ``rank`` is -1 when it is not finite, and ``flat`` marks it degenerate.
    """

    def __init__(self, groups):
        self.ids = [[] for _ in groups]
        self.bases, size, rank = {}, [], []
        shapes = {}
        for g, (pts, top_dim) in enumerate(groups):
            for k in range(2, top_dim + 2):
                shapes.setdefault(k, []).append((g, pts[:, _combinations(pts.shape[1], k)]))
        for s, parts in sorted(shapes.items()):
            stack = np.concatenate([f.reshape(-1, s, f.shape[-1]) for _, f in parts])
            first, ids, _ = _unique_rows(stack.reshape(len(stack), -1))
            self.bases[s], ranks = _face_bases(stack[first])
            split = np.cumsum([f.shape[0] * f.shape[1] for _, f in parts])[:-1]
            for (g, f), part in zip(parts, np.split(ids + len(size), split)):
                self.ids[g].append(part.reshape(f.shape[:2]))
            size += [s] * len(first)
            rank += ranks.tolist()
        self.ids = [np.concatenate(cols, axis=1) if cols else
                    np.zeros((len(pts), 0), dtype=int)
                    for cols, (pts, _) in zip(self.ids, groups)]
        self.size = np.array(size, dtype=int)
        self.local = np.arange(len(size)) - np.searchsorted(self.size, self.size)
        self.rank = rank
        self.flat = np.array(rank, dtype=int) < self.size - 1


def _general_position_each(coords: list, fields, sample_depth: int,
                           stop: bool = False):
    """:func:`general_position` of each simplex of ``coords`` (a list of
    (m+1, n) arrays) against ``fields`` (one :class:`Distribution`, or one
    per simplex), as arrays ``(ok, margin)`` from one
    :func:`_general_positions` call over the (size, field) groups.

    It raises what the loop of ``general_position`` calls raises.  With
    ``stop`` the loop stops at its first simplex that fails, so an error of
    a later simplex is not raised: the caller names the first failure.
    """
    members: dict = {}
    for i, pts in enumerate(coords):
        xi = fields if isinstance(fields, Distribution) else fields[i]
        members.setdefault((len(pts), xi), []).append(i)
    groups = [(np.array(order), np.stack([coords[i] for i in order]), xi)
              for (_, xi), order in members.items()]
    return _general_positions(groups, sample_depth, RANK_REL_TOL, stop)


def _grown(table: np.ndarray, rows: np.ndarray, c_order: bool) -> np.ndarray:
    """``table`` with ``rows`` appended, a stack of (k, n) bases whose items
    are in C order or, without ``c_order``, in Fortran order."""
    if c_order:
        return np.concatenate([table, rows])
    return np.concatenate([table.swapaxes(1, 2), rows.swapaxes(1, 2)]).swapaxes(1, 2)


class _ProbePlanes:
    """The planes of some fields at a table of distinct probes: probe ``p``
    is field ``field[p]`` at point ``points[p]``.  :meth:`evaluate` calls
    each field once, by :meth:`Distribution._bases`, at the probes it meets
    for the first time; ``basis[p]`` is then the basis id of probe ``p``,
    or -1 where its field failed, with the error in ``errors[p]``.

    Distinct bases (by shape and bytes) get ids in order.  Basis i is row
    ``row[i]`` of ``tables[kind[i]]``: one stack per (rank, C order) whose
    items keep that memory order, so a gather hands :func:`_transverse`
    each basis in the layout its field gave it.
    """

    def __init__(self, fields: list, field: np.ndarray, points: np.ndarray):
        self.fields, self.field, self.points = fields, field, points
        self.basis = np.full(len(points), -2, dtype=np.int64)  # -2: not met; -1: failed
        self.errors: dict = {}
        self.ids: dict = {}     # (basis shape, basis bytes) -> basis id
        self.kinds: list = []
        self.tables: list[np.ndarray] = []
        self.kind: list[int] = []
        self.row: list[int] = []

    def evaluate(self, probe: np.ndarray) -> None:
        """Evaluate each field at those of the probes ``probe`` not met
        before."""
        new = np.unique(probe[self.basis[probe] == -2])
        for f in np.unique(self.field[new]).tolist():
            self._evaluate(f, new[self.field[new] == f])

    def _evaluate(self, f: int, probes: np.ndarray) -> None:
        """Evaluate field ``f`` at some probes not met before."""
        bases, errors = self.fields[f]._bases(self.points[probes])
        for i, exc in errors.items():
            self.basis[probes[i]] = -1
            self.errors[int(probes[i])] = exc
        good = np.ones(len(probes), dtype=bool)
        good[list(errors)] = False
        rows = np.flatnonzero(good)
        if not len(rows):
            return
        # the items of one stack share its memory order
        kind = (self.fields[f].rank, bases[0].flags.c_contiguous)
        if kind not in self.kinds:
            self.kinds.append(kind)
            self.tables.append(bases[:0])
        k = self.kinds.index(kind)
        first, same, _ = _unique_rows(bases[rows].reshape(len(rows), -1))
        ids, grow = [], []
        for i in rows[first].tolist():
            got = self.ids.setdefault((bases[i].shape, bases[i].tobytes()), len(self.kind))
            if got == len(self.kind):
                self.kind.append(k)
                self.row.append(len(self.tables[k]) + len(grow))
                grow.append(i)
            ids.append(got)
        self.basis[probes[rows]] = np.array(ids, dtype=np.int64)[same]
        if grow:
            self.tables[k] = _grown(self.tables[k], bases[grow], kind[1])


def _general_positions(groups, sample_depth: int, tol: float, stop: bool = False):
    """:func:`general_position` of many (simplex, field) pairs in one array
    pass, bit for bit what a loop over the pairs in order returns.

    ``groups`` is a list of ``(order, pts, xi)``: the positions of some
    pairs in that loop, an (R, m+1, n) stack of their simplices and their
    one field.  Returns ``(ok, margin)``, two arrays in loop order.

    * Every face of dimension 1..min(m, n-k) of every simplex is gathered
      per face size and deduplicated by its coordinate bytes; each size
      takes one :func:`_face_bases` call.
    * The probes are ``barycentric_lattice @ pts`` per group
      (:func:`probe_points`), numbered once by (field, point bytes).  Wave
      j is the j-th probe of every pair that has not failed yet.
    * The waves run in passes.  A pass starts at a wave and evaluates each
      field at that wave's probes met for the first time, by one
      :meth:`Distribution._bases` call per field (:class:`_ProbePlanes`).
      It takes in every following wave whose probes, for the pairs alive
      at its start, are all evaluated already, up to ``PASS_ENTRIES``
      (pair, probe, face) entries.  So each field is evaluated, once per
      distinct probe, at exactly the probes the loop reaches.
    * In a pass, the (face, field plane) pairs not met before, the plane
      keyed by its basis shape and bytes, take one :func:`_transverse` call
      per face size and plane kind (rank and memory order), so every
      margin has the bits of a stack of one.  One margin table, sorted by
      key, serves every pass.
    * A pass judges its (pair, probe) entries as one array, their face ids
      padded with -1 to the widest simplex.  A pair is decided at its
      first entry, in wave order, whose field fails or whose faces hold
      one that is degenerate or not transverse: it fails there, with
      margin 0, or raises.  Otherwise its margin is the smallest over all
      its entries.
    * Errors come out in loop order: a field error at its probe, and
      :class:`DegenerateSimplex` at a pair's first probe when a degenerate
      face comes before every face that is not transverse.  A pass records
      the earliest pair that raises, and later passes drop every later
      pair; that error is raised once every earlier pair is done.  With
      ``stop`` it is not raised when an earlier pair fails, as a loop that
      stops at its first failure never meets it; pairs after it are then
      left unjudged.
    """
    count = sum(len(order) for order, _, _ in groups)
    ok = np.ones(count, dtype=bool)
    margin = np.full(count, np.inf)
    live = []
    for order, pts, xi in groups:
        free = xi.ambient_dim - xi.rank
        if free == 0 and pts.shape[1] > 1:
            ok[order] = False
            margin[order] = 0.0
        else:
            live.append((order, pts, xi, probe_points(pts, xi, sample_depth),
                         min(pts.shape[1] - 1, free)))
    faces = _FaceTable([(pts, top_dim) for _, pts, _, _, top_dim in live])
    # every probe of every live pair, by (field, point bytes)
    fields = list(dict.fromkeys(xi for _, _, xi, _, _ in live))
    table = np.concatenate([
        np.column_stack([np.full(probes.shape[0] * probes.shape[1], fields.index(xi)),
                         probes.reshape(-1, probes.shape[-1])])
        for _, _, xi, probes, _ in live] or [np.zeros((0, 1))])
    first, probe, _ = _unique_rows(table)
    planes = _ProbePlanes(fields, table[first, 0].astype(np.intp), table[first, 1:])
    # each live pair, group after group: its loop position, and its probe
    # and face ids, padded with -1 past its own
    pos = np.concatenate([order for order, *_ in live] or [np.zeros(0, dtype=int)])
    depth = max([0] + [probes.shape[1] for *_, probes, _ in live])
    width = max([1] + [ids.shape[1] for ids in faces.ids])
    probe_of = np.full((len(pos), depth), -1, dtype=np.int64)
    face_of = np.full((len(pos), width), -1, dtype=np.int64)
    split = np.cumsum([probes.shape[0] * probes.shape[1] for *_, probes, _ in live])[:-1]
    lo = 0
    for (order, _, _, probes, _), pids, ids in zip(live, np.split(probe, split), faces.ids):
        probe_of[lo:lo + len(order), :probes.shape[1]] = pids.reshape(probes.shape[:2])
        face_of[lo:lo + len(order), :ids.shape[1]] = ids
        lo += len(order)
    reach = (probe_of >= 0).sum(axis=1)

    # sorted face id << 32 | basis id, closed by a sentinel; NaN: not transverse
    known, known_margin = np.array([np.iinfo(np.int64).max]), np.array([np.nan])
    alive = ok.copy()
    limit, error = count, None
    start = 0
    while True:
        rows = np.flatnonzero(alive[pos] & (pos < limit) & (reach > start))
        if not len(rows):
            break
        planes.evaluate(probe_of[rows, start])
        # the pass: this wave, and each next one that evaluates nothing
        waves = [rows]
        while start + len(waves) < depth:
            j = start + len(waves)
            more = rows[reach[rows] > j]
            if not len(more) or width * (len(more) + sum(map(len, waves))) > PASS_ENTRIES \
                    or (planes.basis[probe_of[more, j]] == -2).any():
                break
            waves.append(more)
        slot = np.concatenate(waves)
        wave = np.repeat(np.arange(start, start + len(waves)), list(map(len, waves)))
        start += len(waves)
        loop = pos[slot]
        bid = planes.basis[probe_of[slot, wave]]
        fids = face_of[slot]
        face = fids >= 0
        flat = np.zeros_like(face)
        flat[face] = faces.flat[fids[face]]
        use = face & ~flat & (bid >= 0)[:, None]
        keys = (fids << 32 | bid[:, None])[use]
        # the margins of the (face, plane) pairs met for the first time
        distinct, inverse, _ = _unique_rows(keys[:, None])
        met = keys[distinct]
        fresh = met[known[np.searchsorted(known, met)] != met]
        if len(fresh):
            fid, b = fresh >> 32, fresh & 0xFFFFFFFF
            kind, row = np.array(planes.kind)[b], np.array(planes.row)[b]
            combo = faces.size[fid] * len(planes.tables) + kind
            sigma = np.empty(len(fresh))
            for c in _distinct(combo).tolist():
                sel = np.flatnonzero(combo == c)
                s, k = divmod(c, len(planes.tables))
                transverse, sig = _transverse(faces.bases[s][faces.local[fid[sel]]],
                                              planes.tables[k][row[sel]], tol, margins=True)
                sigma[sel] = np.where(transverse, sig, np.nan)
            at = np.searchsorted(known, fresh)
            known, known_margin = np.insert(known, at, fresh), np.insert(known_margin, at, sigma)
        # each entry's faces in loop order: it is decided at the first face
        # that is degenerate or not transverse, or where its field fails
        vals = np.where(flat, np.nan, np.inf)
        vals[use] = known_margin[np.searchsorted(known, met)][inverse]
        bad = np.isnan(vals)
        worst = bad.argmax(axis=1)
        np.minimum.at(margin, loop, np.fmin.reduce(vals, axis=1, initial=np.inf))
        # each pair is decided at its first such entry, in wave order: it
        # fails, and its margin is 0, or it raises, and its margin is moot
        decided = np.flatnonzero((bid < 0) | bad.any(axis=1))
        _, at = np.unique(slot[decided], return_index=True)
        decided = decided[at]
        raises = (bid[decided] < 0) | flat[decided, worst[decided]]
        fail = loop[decided[~raises]]
        ok[fail], margin[fail], alive[fail] = False, 0.0, False
        if raises.any():
            r = decided[raises][np.argmin(loop[decided[raises]])]
            if loop[r] < limit:
                limit = int(loop[r])
                if bid[r] < 0:
                    error = planes.errors[int(probe_of[slot[r], wave[r]])]
                else:
                    f = int(fids[r, worst[r]])
                    error = _degenerate(faces.rank[f], int(faces.size[f]) - 1)
    if error is not None and not (stop and not ok[:limit].all()):
        raise error
    return ok, margin


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
            raise PreconditionViolated("zeta transfer needs shape stats")
        out = c * min(delta, shape.rmin,
                      delta / (shape.lam * shape.rmax))
    elif kind == "eps_from_zeta":
        if shape is None:
            raise PreconditionViolated("eps_from_zeta transfer needs shape stats")
        out = c * delta / shape.rmax
    else:
        raise PreconditionViolated(f"unknown transfer kind {kind!r}")
    return max(out, 0.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TransversalityReport:
    """Per-simplex transversality records, as columns.

    ``records`` lists the examined simplices, by dimension and then in id
    order; ``transverse``, ``eps_margin`` and ``semitrans_margin`` are
    arrays aligned with it.  A record's ``semitrans_margin`` is its
    certificate, NaN where it holds none.
    """

    records: list[tuple[int, ...]]
    transverse: np.ndarray
    eps_margin: np.ndarray
    semitrans_margin: np.ndarray
    min_eps_margin: float = np.inf
    min_semitrans_margin: float | None = None
    margin_tol: float = 0.0
    sampled: bool = True
    passed: bool = False


def _record_pairs(complex_, xi):
    """The records of a report and its (record, field) pairs in loop order.

    Returns ``(tables, fields, rec, which)``: the records as one id table
    per dimension, the distinct fields (none when there is no record), and
    per pair its record's position and its field's index.  For one field
    the records are the complex's own face tables, one pair each.  For a
    dict they are the :func:`_face_tables` of the examined tops, each
    paired with the distinct fields of the tops holding it in the order of
    the first such top.
    """
    if isinstance(xi, Distribution):
        tables = [complex_._face_ids(d) for d in range(complex_.dim + 1)]
        count = sum(map(len, tables))
        return tables, [xi] if count else [], np.arange(count), np.zeros(count, dtype=np.intp)
    unknown = set(xi) - set(complex_.top_simplices)
    if unknown:
        raise QueryNotInComplex(f"{sorted(unknown)} are not top simplices")
    index: dict = {}
    top_field = np.array([index.setdefault(f, len(index)) for f in xi.values()], dtype=np.intp)
    tables, _, (face, top) = _face_tables(list(xi), len(complex_.vertices))
    # by record, then by top: each (record, field) first at its first top
    order = np.lexsort((top, face))
    _, first = np.unique((face * len(index) + top_field[top])[order], return_index=True)
    keep = order[np.sort(first)]
    return list(tables.values()), list(index), face[keep], top_field[top[keep]]


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

    Every (record, field) pair goes through one :func:`_general_positions`
    call, which judges a face shared between records once, so every record
    equals what ``general_position`` returns for it on its own.
    """
    tables, fields, rec, which = _record_pairs(complex_, xi)
    images = np.asarray(vertex_images, dtype=float)
    lengths = [len(t) for t in tables]
    offsets = np.cumsum([0] + lengths)
    sizes = np.repeat(np.arange(1, len(tables) + 1), lengths)
    # one group per (record size, field), its pairs in loop order
    key = (sizes[rec] - 1) * len(fields) + which
    order = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[order], prepend=-1)).tolist()
    groups = []
    for lo, hi in zip(heads, heads[1:] + [len(order)]):
        d, f = divmod(int(key[order[lo]]), len(fields))
        pairs = order[lo:hi]
        groups.append((pairs, images[tables[d][rec[pairs] - offsets[d]]], fields[f]))
    verdict, margins = _general_positions(groups, sample_depth, RANK_REL_TOL)
    # each record's pairs are consecutive: it holds when they all do
    starts = np.flatnonzero(np.diff(rec, prepend=-1))
    held = np.logical_and.reduceat(verdict, starts)
    eps = np.where(held, np.minimum.reduceat(margins, starts), 0.0)
    records = [s for t in tables for s in map(tuple, t.tolist())]
    certificate = (certificates or {}).get
    semi = np.array([certificate(s, np.nan) for s in records], dtype=float)
    certified = semi[~np.isnan(semi)]
    min_eps = float(eps[sizes >= 2].min(initial=np.inf))
    return TransversalityReport(
        records=records, transverse=held, eps_margin=eps, semitrans_margin=semi,
        min_eps_margin=min_eps,
        min_semitrans_margin=float(certified.min()) if len(certified) else None,
        margin_tol=margin_tol, sampled=any(d.kind != "constant" for d in fields),
        passed=bool(held.all() and min_eps > margin_tol))
