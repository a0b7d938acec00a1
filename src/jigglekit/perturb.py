"""Margin-maximizing vertex perturbation.

The core primitive moves one point inside a budget ball (optionally pinned to
an affine flat H) so that its projections into one or more quotient spaces
avoid finitely many affine flats, maximizing the worst-case clearance
(:func:`_avoid_flats`).  On top of that, :func:`_perturb_vertices` runs the
dimension induction: joins with 0-dimensional pieces of the star first, then
1-dimensional ones, and so on, each stage searching inside the clearance ball
of the previous stage so the final ball is nested in all earlier ones.

Each step works on a stack of independent vertices at once
(:func:`_perturb_vertices`, :func:`_avoid_flats`, :func:`_join_margins`), bit
for bit what a loop over them gives; ``avoid_flats`` and ``perturb_vertex``
are stacks of one.  A stacked kernel returns, in place of a result, the
exception its vertex would raise, so a caller can raise the one that a loop
would meet first.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complexes import _combinations
from .errors import (
    DegenerateSimplex,
    InfeasibleDimensions,
    JiggleKitError,
    PreconditionViolated,
    StarNotTransverse,
)
from .grassmann import (
    AffineFlat,
    _project_flat,
    _rejection_norms,
    _transverse,
    affine_span,
)
from .transversality import (
    _join_error,
    _semitrans_margins,
    _transverse_stack,
    simplex_transverse,
)

REFINE_ROUNDS = 3
REFINE_STEPS = (0.25, 0.08, 0.02)
STAGE_STRIDE = 1000003


# ---------------------------------------------------------------------------
# requests and results
# ---------------------------------------------------------------------------

@dataclass
class PerturbationRequest:
    point: np.ndarray
    epsilon: float
    star_simplices: list = field(default_factory=list)
    foliations: list = field(default_factory=list)
    star_foliations: list | None = None
    constraint_flat: AffineFlat | None = None
    seed: int = 0
    samples: int = 64

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.star_simplices = [np.atleast_2d(np.asarray(s, dtype=float))
                               for s in self.star_simplices]
        _check_search(self.point, self.epsilon, self.samples)
        if self.epsilon == 0:
            raise PreconditionViolated("perturbation budget must be positive")


@dataclass
class PerturbationResult:
    point: np.ndarray
    achieved_delta: float
    moved: float
    per_dimension_margins: dict
    certificate: list


def _one(results: list):
    """The only entry of a stacked kernel's output, raised if it failed."""
    (out,) = results
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# the ball search
# ---------------------------------------------------------------------------

def _search_basis(ambient: int, constraint: AffineFlat | None) -> np.ndarray:
    if constraint is None:
        return np.eye(ambient)
    if constraint.direction is None:
        return np.zeros((0, ambient))
    return constraint.direction.basis


def _check_search(point: np.ndarray, epsilon, samples) -> None:
    """Reject a point or budget that is not finite, a negative budget and a
    sample count that is not a nonnegative integer."""
    if not np.isfinite(point).all():
        raise PreconditionViolated(f"point must be finite, got {point}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise PreconditionViolated(
            f"budget must be finite and nonnegative, got {epsilon!r}")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < 0:
        raise PreconditionViolated(
            f"samples must be a nonnegative integer, got {samples!r}")


def _stack(arrays: list, c_order: bool) -> np.ndarray:
    """The 2-D ``arrays`` as one (S, a, b) stack whose items keep their
    memory order, C or Fortran: a product rounds by the order of its
    operands, so a stacked product must see each one as its own call does."""
    if c_order:
        return np.stack(arrays)
    return np.stack([a.T for a in arrays]).swapaxes(1, 2)


def avoid_flats(p, epsilon: float, flats, quotients=None,
                constraint_flat: AffineFlat | None = None,
                seed: int = 0, samples: int = 64):
    """Move p within an epsilon-ball to clear a list of affine flats: a
    stack of one of :func:`_avoid_flats`, returning ``(p', delta)``."""
    return _one(_avoid_flats([(p, epsilon, flats, quotients, constraint_flat,
                               seed, samples)]))


class _Search:
    """Problem ``index`` of :func:`_avoid_flats`: its checked inputs, and
    after :func:`_plan` its projected flats grouped as ``tasks[(quot,
    dim)]``, or the error that planning met."""

    def __init__(self, index, p, epsilon, flats, quotients, constraint_flat, seed,
                 samples):
        self.index = index
        self.point = np.asarray(p, dtype=float)
        _check_search(self.point, epsilon, samples)
        self.flats = list(flats)
        self.quotients = [None] * len(self.flats) if quotients is None else quotients
        if len(self.quotients) != len(self.flats):
            raise PreconditionViolated("flats and quotients must pair up")
        self.epsilon, self.seed, self.samples = epsilon, seed, samples
        self.basis = _search_basis(self.point.shape[0], constraint_flat)
        self.proj: list = []    # per flat: (base, direction basis or None), or an error
        self.dims: dict = {}    # quotient -> projected search dimension
        self.tasks: dict = {}
        self.error = None


def _plan(searches: list) -> None:
    """Project every flat into its quotient and find each quotient's search
    dimension: the first flat (in order) whose projection fails, or that
    fills its projected search domain, sets the search's error.

    Points in a quotient are projected by one stacked product per quotient
    dimension, and the search dimensions come from one stacked SVD per
    (search dimension, quotient dimension, basis memory order); flats with
    a direction go through :func:`_project_flat` one by one.
    """
    points = {}                 # quotient dimension -> [(search, i, base, quot)]
    for s in searches:
        for i, (flat, quot) in enumerate(zip(s.flats, s.quotients)):
            if quot is not None and flat.direction is None:
                s.proj.append(None)
                points.setdefault(quot.complement().shape[0], []).append(
                    (s, i, flat.base, quot))
                continue
            try:
                proj = _project_flat(quot, flat)
            except JiggleKitError as exc:  # the search's error if no flat fails before
                s.proj.append(exc)
            else:
                s.proj.append((proj.base, None if proj.direction is None
                               else proj.direction.basis))
    for rows in points.values():
        comps = np.stack([quot.complement() for *_, quot in rows])
        bases = np.stack([base for _, _, base, _ in rows])
        for (s, i, _, _), base in zip(rows, (bases[:, None, :] @ comps.swapaxes(1, 2))[:, 0]):
            s.proj[i] = (base, None)

    jobs: dict = {}             # (ndof, quotient dimension, C order) -> [(search, quot)]
    for s in searches:
        ndof = s.basis.shape[0]
        for quot in s.quotients:
            if quot in s.dims:
                continue
            m = None if quot is None else quot.complement().shape[0]
            s.dims[quot] = 0
            if ndof and m != 0:
                key = (ndof, m, bool(s.basis.flags.c_contiguous))
                jobs.setdefault(key, []).append((s, quot))
    for (_, m, c_order), rows in jobs.items():
        bases = _stack([s.basis for s, _ in rows], c_order)
        if m is not None:
            bases = bases @ np.stack([quot.complement() for _, quot in rows]).swapaxes(1, 2)
        sv = np.linalg.svd(bases, compute_uv=False)
        dims = (sv > 1e-9 * np.maximum(sv[:, :1], 1.0)).sum(axis=1)
        for (s, quot), dim in zip(rows, dims.tolist()):
            s.dims[quot] = dim

    for s in searches:
        for proj, quot in zip(s.proj, s.quotients):
            if isinstance(proj, Exception):
                s.error = proj
                break
            dim = 0 if proj[1] is None else proj[1].shape[0]
            if dim >= s.dims[quot]:
                s.error = InfeasibleDimensions(
                    f"flat of dimension {dim} fills the "
                    f"{s.dims[quot]}-dimensional projected search domain"
                )
                break
            s.tasks.setdefault((quot, dim), []).append(proj)


class _FlatKind:
    """The projected flats of one kind (quotient dimension or None for the
    ambient space, flat dimension k) of a stack of searches, padded per
    group: ``bases`` (G, T, m), ``dirs`` (G, T, k, m) or None and ``valid``
    (G, T); the quotient complements ``comps`` (G, m, n) or None.  The
    groups of search a are ``first[a]`` to ``first[a] + count[a]``."""

    def __init__(self, groups: list, searches: int):
        owner = np.array([a for a, _, _ in groups], dtype=np.intp)
        self.count = np.bincount(owner, minlength=searches)
        self.first = np.cumsum(self.count) - self.count
        quots = [quot for _, quot, _ in groups]
        self.comps = None if quots[0] is None else np.stack([q.complement() for q in quots])
        sizes = np.array([len(flats) for _, _, flats in groups])
        gid = np.repeat(np.arange(len(groups)), sizes)
        pos = np.arange(len(gid)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        flats = [flat for _, _, group in groups for flat in group]
        bases = np.stack([base for base, _ in flats])
        shape = (len(groups), int(sizes.max()))
        self.bases = np.zeros(shape + bases.shape[1:])
        self.bases[gid, pos] = bases
        self.dirs = None
        if flats[0][1] is not None:
            dirs = np.stack([d for _, d in flats])
            self.dirs = np.zeros(shape + dirs.shape[1:])
            self.dirs[gid, pos] = dirs
        self.valid = np.zeros(shape, dtype=bool)
        self.valid[gid, pos] = True


def _objective(qs: np.ndarray, owner: np.ndarray, points: np.ndarray,
               eps: np.ndarray, kinds: list):
    """|q - p| and min(epsilon - |q - p|, clearance of q) of each candidate
    row of ``qs``, scored against the flats of its search ``owner``.

    Per kind, each (candidate, group) pair is projected by its own stacked
    product and measured against the group's flats by
    :func:`_rejection_norms`, as one search's candidates are measured
    against one group, so every value has the point-by-point bits.
    """
    rel = qs - points[owner]
    dist = np.sqrt(np.vecdot(rel, rel))
    val = eps[owner] - dist
    for kind in kinds:
        count = kind.count[owner]
        rows = np.repeat(np.arange(len(owner)), count)
        g = kind.first[owner[rows]] + np.arange(len(rows)) \
            - np.repeat(np.cumsum(count) - count, count)
        if not len(g):
            continue
        x = qs[rows]
        if kind.comps is not None:
            x = (x[:, None, :] @ kind.comps[g].swapaxes(1, 2))[:, 0]
        d = _rejection_norms(x[:, None, :] - kind.bases[g],
                             None if kind.dirs is None else kind.dirs[g])
        d[~kind.valid[g]] = np.inf
        np.minimum.at(val, rows, d.min(axis=1))
    return dist, val


def _avoid_flats(problems: list) -> list:
    """Move each problem's point p within its epsilon-ball to clear a list
    of affine flats; a problem is ``(p, epsilon, flats, quotients,
    constraint_flat, seed, samples)``, and ``flats[i]`` is avoided inside
    the quotient by ``quotients[i]`` (a Plane, or None for the ambient
    space).  Returns per problem ``(q, delta)`` with |q-p| + delta <=
    epsilon such that the open delta-ball around each projection of q
    misses its flat (the nested-ball contract), or the exception its search
    raises.  delta is the best clearance the seeded search found: it scores
    ``samples`` seeded points of the ball, keeping the first strictly
    better one, then refines along the search axes with shrinking steps,
    taking the first improving move of each sweep, as it does run alone.

    The searches run in lockstep.  Their seeded samples are one stack per
    search dimension and basis memory order, each search keeping its own
    first best sample.  Each refinement round of every search is a state
    (step, round, next move); one pass scores the remaining moves of every
    live search as one stack, and each search takes its own first
    improving move, so each follows the sweep it would follow alone.
    """
    out: list = [None] * len(problems)
    searches = []
    for j, problem in enumerate(problems):
        try:
            searches.append(_Search(j, *problem))
        except JiggleKitError as exc:  # returned in place of the result
            out[j] = exc
    _plan(searches)
    for s in searches:
        if s.error is not None:
            out[s.index] = s.error
    searches = [s for s in searches if s.error is None]
    if not searches:
        return out

    count = len(searches)
    kinds: dict = {}
    for a, s in enumerate(searches):
        for (quot, dim), flats in s.tasks.items():
            m = None if quot is None else quot.complement().shape[0]
            kinds.setdefault((m, dim), []).append((a, quot, flats))
    kinds = [_FlatKind(groups, count) for groups in kinds.values()]
    points = np.stack([s.point for s in searches])
    eps = np.array([s.epsilon for s in searches], dtype=float)

    def objective(qs, owner):
        return _objective(qs, owner, points, eps, kinds)

    best_q = points.copy()
    best_val = objective(points, np.arange(count))[1]
    searching = np.array([bool(s.tasks) for s in searches])

    # seeded samples, one stack per (search dimension, basis memory order)
    draws: dict = {}
    for a, s in enumerate(searches):
        if searching[a] and s.samples:
            ndof = s.basis.shape[0]
            rng = np.random.default_rng([s.seed, 2026])
            dirs = rng.normal(size=(s.samples, ndof))
            draws.setdefault((ndof, bool(s.basis.flags.c_contiguous)), []).append(
                (a, dirs, rng.uniform(0.0, 1.0, size=s.samples)))
    for (ndof, c_order), rows in draws.items():
        who = np.array([a for a, _, _ in rows])
        sizes = np.array([len(u) for _, _, u in rows])
        owner = np.repeat(who, sizes)
        dirs = np.concatenate([d for _, d, _ in rows])
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        radii = eps[owner] * np.concatenate([u for _, _, u in rows]) \
            ** (1.0 / max(ndof, 1))
        offsets = (dirs / norms[:, None]) * radii[:, None]
        basis = _stack([searches[a].basis for a in who.tolist()], c_order)
        local = np.repeat(np.arange(len(rows)), sizes)
        qs = points[owner] + (offsets[:, None, :] @ basis[local])[:, 0, :]
        vals = objective(qs, owner)[1]
        # each search's first best sample: its row of samples padded with
        # -inf after the last, so padding never comes first
        starts = np.cumsum(sizes) - sizes
        padded = np.full((len(rows), int(sizes.max())), -np.inf)
        padded[local, np.arange(len(owner)) - starts[local]] = vals
        picks = starts + padded.argmax(axis=1)
        keep = vals[picks] > best_val[who]
        best_q[who[keep]] = qs[picks[keep]]
        best_val[who[keep]] = vals[picks[keep]]

    # the moves of one sweep in order: +axis, -axis for each search axis,
    # per search and step, padded to the longest sweep
    nmoves = np.array([2 * s.basis.shape[0] for s in searches])
    moves = np.zeros((count, len(REFINE_STEPS), max(int(nmoves.max()), 1),
                      points.shape[1]))
    by_ndof: dict = {}
    for a, s in enumerate(searches):
        by_ndof.setdefault(s.basis.shape[0], []).append(a)
    for ndof, who in by_ndof.items():
        axes = np.repeat(np.stack([searches[a].basis for a in who]), 2, axis=1)
        signs = np.tile([1.0, -1.0], ndof)
        for t, step in enumerate(REFINE_STEPS):
            moves[who, t, :2 * ndof] = (signs * step * eps[who][:, None])[..., None] * axes
    step = np.zeros(count, dtype=np.intp)
    rounds = np.zeros(count, dtype=np.intp)
    start = np.zeros(count, dtype=np.intp)
    improved = np.zeros(count, dtype=bool)
    live = np.flatnonzero(searching & (nmoves > 0))
    width = np.arange(moves.shape[2])
    while live.size:
        # every move starts at the latest best point, so after an accepted
        # move only the later ones of the sweep count; each live search
        # scores its whole padded sweep and takes its first counting move
        # that stays in the ball and improves
        qs = (best_q[live, None, :] + moves[live, step[live]]).reshape(-1, points.shape[1])
        dist, vals = objective(qs, np.repeat(live, len(width)))
        better = (width >= start[live, None]) & (width < nmoves[live, None]) \
            & ~(dist.reshape(len(live), -1) > eps[live, None]) \
            & (vals.reshape(len(live), -1) > best_val[live, None])
        first = better.argmax(axis=1)
        hit = np.flatnonzero(better[np.arange(len(live)), first])
        took, at = live[hit], hit * len(width) + first[hit]
        best_q[took], best_val[took] = qs[at], vals[at]
        improved[took] = True
        start[took] = first[hit] + 1
        # a sweep ends when no move improves or none is left; then the next
        # round follows an improving sweep, and the next step any other
        ended = np.ones(len(live), dtype=bool)
        ended[hit] = start[took] >= nmoves[took]
        done = live[ended]
        again = improved[done] & (rounds[done] + 1 < REFINE_ROUNDS)
        rounds[done] = np.where(again, rounds[done] + 1, 0)
        step[done] += ~again
        start[done], improved[done] = 0, False
        live = live[step[live] < len(REFINE_STEPS)]

    for a, s in enumerate(searches):
        delta = max(float(best_val[a]), 0.0)
        delta = min(delta, s.epsilon - float(np.linalg.norm(best_q[a] - s.point)))
        out[s.index] = (best_q[a], max(delta, 0.0))
    return out


# ---------------------------------------------------------------------------
# the dimension induction
# ---------------------------------------------------------------------------

@functools.cache
def _join_faces(size: int, cap: int):
    """The faces of a star simplex of ``size`` vertices that form joins of
    dimension at most ``cap``, by d and then in ``combinations`` order:
    their ``idx`` tuples, and per d its position among them and a
    read-only (C, d) array of the faces."""
    faces, parts = [], []
    for d in range(1, min(cap, size) + 1):
        table = _combinations(size, d)
        parts.append((d, len(faces), table))
        faces += map(tuple, table.tolist())
    return tuple(faces), tuple(parts)


@functools.cache
def _join_list(u: int, si: int, size: int, cap: int) -> tuple:
    """``(u, si, idx)`` of the joins of foliation u with star simplex si."""
    return tuple((u, si, idx) for idx in _join_faces(size, cap)[0])


def _join_margins(jobs: list) -> list:
    """The joins of each job ``(point, stars, star_folis, folis)`` as
    :func:`_join_list` gives them and the semitransversality margin of each
    (zero where the base face is not transverse), or the
    :class:`DegenerateSimplex` of the job's first join (in list order) with
    a degenerate base.

    The joins of every job are gathered per (base size, foliation rank) and
    each such stack takes one :func:`_semitrans_margins` call, so a join
    has the bits of its own :func:`semitrans_margin`.
    """
    tables: dict = {}           # rank -> {plane: id}
    buckets: dict = {}          # (d, rank, table) -> [(job, plane id, first row, first join)]
    rows, offset, count, listed = [], 0, 0, []
    for j, (_, stars, star_folis, folis) in enumerate(jobs):
        starts = []
        for s in stars:
            starts.append(offset)
            rows.append(s)
            offset += s.shape[0]
        joins = []
        for u, v in enumerate(folis):
            rank = v.rank
            table = tables.setdefault(rank, {})
            pid = table.setdefault(v, len(table))
            cap = v.ambient_dim - rank
            for si, (s, us) in enumerate(zip(stars, star_folis)):
                if u not in us:
                    continue
                faces, parts = _join_faces(s.shape[0], cap)
                for d, at, combos in parts:
                    buckets.setdefault((d, rank, id(combos)), (combos, []))[1].append(
                        (j, pid, starts[si], count + at))
                joins += _join_list(u, si, s.shape[0], cap)
                count += len(faces)
        listed.append(joins)
    margins = np.zeros(count)
    status = np.zeros(count, dtype=np.int8)
    by_size: dict = {}
    for (d, rank, _), (combos, recs) in buckets.items():
        job, pid, row, at = np.array(recs, dtype=np.intp).T
        by_size.setdefault((d, rank), []).append(
            (np.repeat(job, len(combos)), np.repeat(pid, len(combos)),
             (row[:, None, None] + combos).reshape(-1, d),
             (at[:, None] + np.arange(len(combos))).reshape(-1)))
    if by_size:
        rows = np.concatenate(rows)
        points = np.stack([np.asarray(job[0], dtype=float) for job in jobs])
        for (d, rank), parts in by_size.items():
            job, pid, faces, at = (np.concatenate(cols) for cols in zip(*parts))
            got, flags = _semitrans_margins(points[job], rows[faces], list(tables[rank]), pid)
            margins[at], status[at] = np.where(flags == 1, 0.0, got), flags
    margins, status, first, out = margins.tolist(), (status == 2).tolist(), 0, []
    for joins in listed:
        last = first + len(joins)
        out.append(_join_error(2) if any(status[first:last])
                   else (joins, margins[first:last]))
        first = last
    return out


def _star_errors(jobs: list) -> list:
    """The error a vertex of :func:`_perturb_vertices` meets before its
    search, per job
    ``(stars, star_folis, folis, constraint_flat)``, or None.

    For each foliation u in turn: the first star simplex of u that is
    degenerate (:class:`DegenerateSimplex`) or not transverse to it
    (:class:`StarNotTransverse`), then a constraint flat that is not
    transverse to it (:class:`PreconditionViolated`).  Simplices of
    dimension 1 to n-k of every job take one :func:`_transverse_stack`
    call per (size, foliation rank).
    """
    stacks: dict = {}
    for j, (stars, star_folis, folis, _) in enumerate(jobs):
        for u, v in enumerate(folis):
            free = v.ambient_dim - v.rank
            for i, (s, us) in enumerate(zip(stars, star_folis)):
                if u in us and 2 <= len(s) <= free + 1:
                    stacks.setdefault((len(s), v.rank), []).append((j, u, i))
    verdicts = {}
    for keys in stacks.values():
        transverse, degenerate = _transverse_stack(
            np.stack([jobs[j][0][i] for j, _, i in keys]),
            [jobs[j][2][u] for j, u, _ in keys])
        verdicts.update(zip(keys, zip(transverse.tolist(), degenerate.tolist())))
    return [_first_star_error(j, *job, verdicts) for j, job in enumerate(jobs)]


def _first_star_error(j, stars, star_folis, folis, constraint, verdicts):
    """The error of job j of :func:`_star_errors`, from the stacked
    ``verdicts`` and, for the other star simplices, ``simplex_transverse``."""
    for u, v in enumerate(folis):
        for i, (s, us) in enumerate(zip(stars, star_folis)):
            if u not in us:
                continue
            if len(s) == 1:     # a point is transverse to everything
                continue
            if (j, u, i) in verdicts:
                ok, flat = verdicts[j, u, i]
                if flat:
                    return DegenerateSimplex("simplex directions are dependent")
            else:
                try:
                    ok = simplex_transverse(s, v)
                except JiggleKitError as exc:  # raised in the job's place
                    return exc
            if not ok:
                return StarNotTransverse(
                    f"a star simplex of dim {s.shape[0] - 1} is not transverse "
                    f"to foliation {u}"
                )
        if constraint is not None and constraint.direction is not None:
            if not _transverse(constraint.direction.basis[None], v)[0]:
                return PreconditionViolated(
                    f"constraint flat is not transverse to foliation {u}"
                )
    return None


def _stage_flats(stars, star_folis, folis, d: int):
    """The flats of stage d of :func:`_perturb_vertices` and their quotients:
    the affine span of every face of d vertices of a star simplex, once
    per foliation and set of rounded coordinates, in (foliation, simplex,
    face) order."""
    flats, quotients, seen = [], [], set()
    for u, v in enumerate(folis):
        if d > v.ambient_dim - v.rank:
            continue
        if d == 1:
            rows = [s for s, us in zip(stars, star_folis) if u in us]
            rows = np.concatenate(rows) if rows else np.zeros((0, 0))
            for row, key in zip(rows, np.round(rows, 12)):
                key = (u, key.tobytes())
                if key not in seen:
                    seen.add(key)
                    flats.append(AffineFlat(row, None))
                    quotients.append(v)
            continue
        for s, us in zip(stars, star_folis):
            if u not in us:
                continue
            for idx in _combinations(s.shape[0], d):
                face = s[idx]
                rounded = np.round(face, 12)
                ordered = rounded[np.lexsort(rounded.T[::-1])]
                key = (u, ordered.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                flats.append(affine_span(face))
                quotients.append(v)
    return flats, quotients


def perturb_vertex(req: PerturbationRequest) -> PerturbationResult:
    """Perturb one point so all joins with the star become semitransverse:
    a stack of one of :func:`_perturb_vertices`."""
    return _one(_perturb_vertices([req]))


class _Vertex:
    """The state of one request of :func:`_perturb_vertices`."""

    def __init__(self, index: int, req: PerturbationRequest):
        self.index, self.req = index, req
        self.folis = list(req.foliations)
        self.stars = req.star_simplices
        self.star_folis = req.star_foliations
        if self.star_folis is None:
            self.star_folis = [tuple(range(len(self.folis)))] * len(self.stars)
        if len(self.star_folis) != len(self.stars):
            raise PreconditionViolated("star_foliations must parallel star_simplices")
        constraint = req.constraint_flat
        h_dim = constraint.dim if constraint is not None else req.point.shape[0]
        self.d_max = min(max((v.ambient_dim - v.rank for v in self.folis), default=0),
                         h_dim)
        self.current, self.delta = req.point, req.epsilon
        self.per_dim: dict[int, float] = {}
        self.error = None


def _perturb_vertices(reqs: list) -> list:
    """Perturb each request's point so all joins with its star become
    semitransverse: per request its :class:`PerturbationResult`, or the
    exception the request meets, bit for bit what it gets alone.  Stage d
    of the induction clears the projected affine spans of the
    (d-1)-dimensional star faces inside the ball left by stage d-1, so the
    per-dimension margins are non-increasing; the certificate lists the
    realized margin of every join.

    The star checks of all requests are one :func:`_star_errors` pass.
    The stages run in lockstep: stage d of every request that has one is
    one :func:`_avoid_flats` call, and the certificates are one
    :func:`_join_margins` call.
    """
    out: list = [None] * len(reqs)
    verts = []
    for j, req in enumerate(reqs):
        try:
            verts.append(_Vertex(j, req))
        except JiggleKitError as exc:  # returned in place of the result
            out[j] = exc
    errors = _star_errors([(v.stars, v.star_folis, v.folis, v.req.constraint_flat)
                           for v in verts])
    for v, error in zip(verts, errors):
        v.error = error
    for d in range(1, max((v.d_max for v in verts), default=0) + 1):
        problems, staged = [], []
        for v in verts:
            if v.error is not None or d > v.d_max:
                continue
            flats, quotients = _stage_flats(v.stars, v.star_folis, v.folis, d)
            if not flats:
                v.per_dim[d] = v.delta
                continue
            problems.append((v.current, v.delta, flats, quotients,
                             v.req.constraint_flat, v.req.seed * STAGE_STRIDE + d,
                             v.req.samples))
            staged.append(v)
        for v, res in zip(staged, _avoid_flats(problems)):
            if isinstance(res, Exception):
                v.error = res
            else:
                v.current, v.delta = res
                v.per_dim[d] = v.delta
    done = [v for v in verts if v.error is None]
    certificates = _join_margins([(v.current, v.stars, v.star_folis, v.folis)
                                  for v in done])
    for v in verts:
        if v.error is not None:
            out[v.index] = v.error
    for v, certificate in zip(done, certificates):
        if isinstance(certificate, Exception):
            out[v.index] = certificate
            continue
        moved = float(np.linalg.norm(v.current - v.req.point))
        delta = max(min(v.delta, v.req.epsilon - moved), 0.0)
        out[v.index] = PerturbationResult(
            point=v.current,
            achieved_delta=float(delta),
            moved=moved,
            per_dimension_margins=v.per_dim,
            certificate=[(u, si, idx, m) for (u, si, idx), m in zip(*certificate)],
        )
    return out
