"""Margin-maximizing vertex perturbation.

The core primitive moves one point inside a budget ball (optionally pinned to
an affine flat H) so that its projections into one or more quotient spaces
avoid finitely many affine flats, maximizing the worst-case clearance
(:func:`_clear`; :func:`_avoid_flats` takes the flats as objects).  On top
of that, :func:`_perturb` runs the dimension
induction: joins with 0-dimensional pieces of the star first, then
1-dimensional ones, and so on, each stage searching inside the clearance
ball of the previous stage so the final ball is nested in all earlier ones.

Each step works on a stack of independent vertices at once, bit for bit
what a loop over them gives.  The vertices come as :class:`_Stars`: their
foliations, star simplices, pairs and joins as index arrays into a
coordinate table that each kernel takes beside them.  The engine builds one
for a whole vertex induction and hands every kernel a wave's slice of it
(:meth:`_Stars.take`), so no plane, flat or request is built per vertex.
``perturb_vertex`` runs one :class:`PerturbationRequest` through the same
kernels, and ``avoid_flats`` is a stack of one of :func:`_avoid_flats`.  A
stacked kernel returns, in place of a result, the exception its vertex
would raise, so a caller can raise the one that a loop would meet first.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections.abc import Iterable, Sized
from dataclasses import dataclass, field

import numpy as np

from .complexes import _combinations, _distinct, _unique_rows
from .errors import (
    AmbientMismatch,
    DegenerateSimplex,
    InfeasibleDimensions,
    PreconditionViolated,
    RankDeficient,
    StarNotTransverse,
)
from .grassmann import (
    LOST_DIRECTION,
    AffineFlat,
    Plane,
    _rejection_norms,
    _row_spaces,
    _stack,
    _transverse,
)
from .transversality import _join_error, _semitrans_margins, _transverse_stack

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
        self.point = _floats(self.point, "point")
        self.star_simplices = [np.atleast_2d(_floats(s, "star simplex"))
                               for s in _listed(self.star_simplices, "star_simplices")]
        self.foliations = _listed(self.foliations, "foliations")
        flats = [] if self.constraint_flat is None else [self.constraint_flat]
        error = _geometry_error(self.point, self.foliations, flats, self.star_simplices) \
            or _check_searches(self.point[None], [self.epsilon], [self.samples], [self.seed])[0]
        star_folis = self.star_foliations
        if error is None and star_folis is not None and not (
                isinstance(star_folis, Sized) and len(star_folis) == len(self.star_simplices)
                and all(isinstance(us, Iterable)
                        and all(_is_count(u) and u < len(self.foliations) for u in us)
                        for us in star_folis)):
            error = PreconditionViolated("star_foliations must parallel star_simplices, "
                                         "each entry naming foliations by their index")
        if error is not None:
            raise error
        if self.epsilon == 0:
            raise PreconditionViolated("perturbation budget must be positive")


@dataclass
class PerturbationResult:
    point: np.ndarray
    achieved_delta: float
    moved: float
    per_dimension_margins: dict
    certificate: list


# ---------------------------------------------------------------------------
# the ball search
# ---------------------------------------------------------------------------

@functools.cache
def _identity(ambient: int) -> np.ndarray:
    """The read-only identity of R^ambient, the basis of an unconstrained
    search; built once per dimension."""
    eye = np.eye(ambient)
    eye.setflags(write=False)
    return eye


def _search_basis(ambient: int, constraint: AffineFlat | None) -> np.ndarray:
    if constraint is None:
        return _identity(ambient)
    if constraint.direction is None:
        return np.zeros((0, ambient))
    return constraint.direction.basis


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array; text or ragged nesting is a
    :class:`PreconditionViolated`."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PreconditionViolated(f"{what} is not an array of numbers: {exc}") from None


def _listed(value, what: str) -> list:
    """``value`` as a list, or a PreconditionViolated if it is no collection."""
    if not isinstance(value, Iterable):
        raise PreconditionViolated(f"{what} must be a collection, got {value!r}")
    return list(value)


def _is_count(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) \
        and value >= 0


def _geometry_error(point: np.ndarray, planes: list, flats: list, simplices=()):
    """The error of a search's geometry, or None: a point that is not a
    vector, a plane that is not a :class:`Plane` or a flat that is not an
    :class:`AffineFlat`, then a plane, flat or simplex in another R^m than
    the point, in that order."""
    if point.ndim != 1:
        return PreconditionViolated(f"point must be a vector, got shape {point.shape}")
    n = len(point)
    for items, kind in ((planes, Plane), (flats, AffineFlat)):
        for item in items:
            if not isinstance(item, kind):
                return PreconditionViolated(
                    f"expected a {kind.__name__}, got a {type(item).__name__}")
            if item.ambient_dim != n:
                return AmbientMismatch(
                    f"a {kind.__name__} in R^{item.ambient_dim} and a point in R^{n}")
    for s in simplices:
        if s.ndim != 2 or s.shape[1] != n:
            return AmbientMismatch(f"a star simplex of shape {s.shape} and a point in R^{n}")
    return None


def _check_searches(points: np.ndarray, eps, samples, seeds) -> list:
    """The error of each search's inputs, or None, from one array pass over
    the (S, n) ``points`` and the budgets ``eps``: a point or budget that
    is not finite or a budget that is not a real number, a negative budget,
    then a sample count or a seed that is not a nonnegative integer, in that
    order."""
    budgets = np.array([e if isinstance(e, numbers.Real) else np.nan for e in eps],
                       dtype=float)
    bad_point = ~np.isfinite(points).all(axis=1)
    bad_budget = ~(np.isfinite(budgets) & (budgets >= 0))
    counted = np.array([_is_count(s) and _is_count(t) for s, t in zip(samples, seeds)],
                       dtype=bool)
    out: list = [None] * len(points)
    for j in np.flatnonzero(bad_point | bad_budget | ~counted).tolist():
        if bad_point[j]:
            message = f"point must be finite, got {points[j]}"
        elif bad_budget[j]:
            message = f"budget must be finite and nonnegative, got {eps[j]!r}"
        elif not _is_count(samples[j]):
            message = f"samples must be a nonnegative integer, got {samples[j]!r}"
        else:
            message = f"seed must be a nonnegative integer, got {seeds[j]!r}"
        out[j] = PreconditionViolated(message)
    return out


class _Planes:
    """Distinct :class:`Plane` objects of one ambient space, numbered in
    order, with their orthonormal bases and complements stacked per rank:
    ``bases[r]`` and ``comps[r]``, plane i at row ``at[i]`` of its rank's."""

    def __init__(self, planes: list):
        self.rank = np.array([p.rank for p in planes], dtype=np.intp)
        self.at = np.zeros(len(planes), dtype=np.intp)
        self.bases, self.comps = {}, {}
        for r in np.unique(self.rank).tolist():
            rows = np.flatnonzero(self.rank == r)
            self.at[rows] = np.arange(len(rows))
            self.bases[r] = np.stack([planes[i].basis for i in rows.tolist()])
            self.comps[r] = np.stack([planes[i].complement() for i in rows.tolist()])

    def complements(self, ids: np.ndarray) -> np.ndarray:
        """The complements (S, n-k, n) of the planes ``ids``, all of rank k."""
        return self.comps[self.rank[ids[0]]][self.at[ids]]


def avoid_flats(p, epsilon: float, flats, quotients=None,
                constraint_flat: AffineFlat | None = None,
                seed: int = 0, samples: int = 64):
    """Move p within an epsilon-ball to clear a list of affine flats: a
    stack of one of :func:`_avoid_flats`, returning ``(p', delta)`` or
    raising its failure."""
    (out,) = _avoid_flats([(p, epsilon, flats, quotients, constraint_flat, seed, samples)])
    if isinstance(out, Exception):
        raise out
    return out


def _avoid_flats(problems: list) -> list:
    """Move each problem's point p within its epsilon-ball to clear a list
    of affine flats; a problem is ``(p, epsilon, flats, quotients,
    constraint_flat, seed, samples)``, and ``flats[i]`` is avoided inside
    the quotient by ``quotients[i]`` (a Plane, or None for the ambient
    space).  Returns per problem ``(q, delta)`` with |q-p| + delta <=
    epsilon such that the open delta-ball around each projection of q
    misses its flat (the nested-ball contract), or the exception its search
    raises: the first flat (in order) whose projection fails or fills the
    projected search domain sets it.  The flats go to :func:`_clear` as
    arrays, their direction bases stacked per (quotient dimension, rank,
    memory order)."""
    out: list = [None] * len(problems)
    searches, quots, owner, quot, base, spans = [], {}, [], [], [], {}
    for j, (p, epsilon, flats, quotients, constraint, seed, samples) in enumerate(problems):
        point = np.asarray(p, dtype=float)
        try:
            flats = _listed(flats, "flats")
            quotients = [None] * len(flats) if quotients is None else \
                _listed(quotients, "quotients")
        except PreconditionViolated as exc:   # returned in place of the result
            out[j] = exc
            continue
        error = _geometry_error(point, [q for q in quotients if q is not None],
                                flats if constraint is None else flats + [constraint]) \
            or _check_searches(point[None], [epsilon], [samples], [seed])[0]
        if error is None and len(quotients) != len(flats):
            error = PreconditionViolated("flats and quotients must pair up")
        if error is not None:   # returned in place of the result
            out[j] = error
            continue
        for flat, q in zip(flats, quotients):
            if flat.direction is not None:
                basis = flat.direction.basis
                m = -1 if q is None else q.complement().shape[0]
                spans.setdefault((m, basis.shape[0], bool(basis.flags.c_contiguous)),
                                 []).append((len(owner), basis))
            owner.append(len(searches))
            quot.append(-1 if q is None else quots.setdefault(q, len(quots)))
            base.append(np.asarray(flat.base, dtype=float))
        searches.append((j, point, epsilon, seed, samples,
                         _search_basis(point.shape[0], constraint)))
    if not searches:
        return out
    index, points, eps, seeds, samples, bases = zip(*searches)
    points = np.stack(points)
    base = np.stack(base) if base else np.zeros((0, points.shape[1]))
    spans = [(np.array([r for r, _ in items]), _stack([b for _, b in items], c_order))
             for (_, _, c_order), items in spans.items()]
    owner, quot, quots = np.array(owner, dtype=np.intp), np.array(quot, dtype=np.intp), \
        _Planes(list(quots))
    pairs = np.column_stack([owner, quot]).reshape(-1, 2)
    first, inverse, _ = _unique_rows(pairs)
    room = _search_dims(bases, pairs[first], quots)[inverse]
    results = _clear(owner, quot, base, spans, quots, room, points, list(eps), list(seeds),
                     list(samples), list(bases))
    for j, res in zip(index, results):
        out[j] = res
    return out


def _project_flats(quot: np.ndarray, base: np.ndarray, spans: list, quots: _Planes):
    """Each flat in the quotient by plane ``quot[i]`` of ``quots`` (-1: the ambient
    space), written as :func:`grassmann._project_flat` writes it, bit for
    bit.  ``base`` (F, n) holds the base points; ``spans`` lists ``(rows,
    dirs)`` of the flats with a direction, each (S, r, n) stack of
    orthonormal direction bases of one quotient dimension, its items in the
    memory layout of their own arrays.

    Returns ``(kinds, dims, errors)``: per (quotient dimension or -1,
    projected dimension) the rows of its flats with their projected bases
    and direction bases (None for points); each flat's projected dimension;
    and ``{row: RankDeficient}`` for the flats whose projected directions
    are dependent.  The bases take one product per quotient dimension, the
    directions one per stack, and the projected directions one
    :func:`_row_spaces` per (quotient dimension, number kept).
    """
    ms = np.append(base.shape[1] - quots.rank, -1)[quot]
    at, pbase = np.empty(len(quot), dtype=np.intp), {}
    for m in np.unique(ms).tolist():
        rows = np.flatnonzero(ms == m)
        at[rows] = np.arange(len(rows))
        pbase[m] = base[rows] if m < 0 else \
            (base[rows][:, None, :] @ quots.complements(quot[rows]).swapaxes(1, 2))[:, 0]
    dims = np.zeros(len(quot), dtype=np.intp)
    point = np.ones(len(quot), dtype=bool)
    errors, parts = {}, {}
    for rows, dirs in spans:
        m = int(ms[rows[0]])
        point[rows] = False
        if m < 0:
            dims[rows] = dirs.shape[1]
            parts.setdefault((m, dirs.shape[1]), []).append((rows, dirs))
            continue
        proj = dirs @ quots.complements(quot[rows]).swapaxes(1, 2)
        keep = np.linalg.norm(proj, axis=2) > LOST_DIRECTION
        kept = keep.sum(axis=1)
        point[rows[kept == 0]] = True
        for c in _distinct(kept[kept > 0]).tolist():
            sel = np.flatnonzero(kept == c)
            bases, ranks = _row_spaces(proj[sel][keep[sel]].reshape(len(sel), c, m))
            width = bases.shape[1]
            for i in np.flatnonzero(ranks < width).tolist():
                errors[int(rows[sel[i]])] = RankDeficient(
                    f"spanning set is rank deficient (rank {ranks[i]} of {width})")
            good = ranks == width
            dims[rows[sel[good]]] = width
            parts.setdefault((m, width), []).append((rows[sel[good]], bases[good]))
    for m in pbase:
        parts.setdefault((m, 0), []).append((np.flatnonzero(point & (ms == m)), None))
    kinds = {}
    for key, items in parts.items():
        rows = np.concatenate([r for r, _ in items])
        dirs = None if key[1] == 0 else np.concatenate([d for _, d in items])
        if len(rows):
            kinds[key] = (rows, pbase[key[0]][at[rows]], dirs)
    return kinds, dims, errors


def _search_dims(bases: list, pairs: np.ndarray, quots: _Planes) -> np.ndarray:
    """The projected search dimension of each ``(search, quotient id)`` row
    of ``pairs`` (-1: the ambient space): the rank of the search basis
    projected into the quotient, from one stacked SVD per (search
    dimension, quotient dimension, basis memory order)."""
    dims = np.zeros(len(pairs), dtype=np.intp)
    if not len(pairs):
        return dims
    search, quot = pairs[:, 0], pairs[:, 1]
    ndof = np.array([b.shape[0] for b in bases])[search]
    c_order = np.array([b.flags.c_contiguous for b in bases])[search]
    ms = np.append(bases[0].shape[1] - quots.rank, -1)[quot]
    key = np.column_stack([ndof, ms, c_order])
    kinds = key[(ndof > 0) & (ms != 0)]
    for ndof_, m, c in kinds[_unique_rows(kinds)[0]].tolist():
        rows = np.flatnonzero((key == [ndof_, m, c]).all(axis=1))
        stack = _stack([bases[a] for a in search[rows].tolist()], bool(c))
        if m >= 0:
            stack = stack @ quots.complements(quot[rows]).swapaxes(1, 2)
        sv = np.linalg.svd(stack, compute_uv=False)
        dims[rows] = (sv > 1e-9 * np.maximum(sv[:, :1], 1.0)).sum(axis=1)
    return dims


def _clear(owner, quot, base, spans, quots, room, points, eps, seeds, samples,
           bases) -> list:
    """Move each search's point within its budget ball to clear its flats:
    per search ``(q, delta)`` or the error of its first flat in order whose
    projection fails (:func:`_project_flats`) or fills its projected search
    domain, of dimension ``room[i]`` (:func:`_search_dims`).  Flat i
    belongs to search ``owner[i]`` (nondecreasing) and is avoided in the
    quotient by plane ``quot[i]`` of ``quots`` (-1: the ambient space);
    search a starts at ``points[a]`` with budget ``eps[a]`` and moves along
    the rows of ``bases[a]``."""
    count = len(points)
    kinds, dims, errors = _project_flats(quot, base, spans, quots)
    out: list = [None] * count
    bad = dims >= room
    bad[list(errors)] = True
    for i in np.flatnonzero(bad).tolist():
        a = int(owner[i])
        if out[a] is None:
            out[a] = errors.get(i) or InfeasibleDimensions(
                f"flat of dimension {dims[i]} fills the "
                f"{room[i]}-dimensional projected search domain")
    alive = np.array([res is None for res in out], dtype=bool)
    renumber = np.cumsum(alive) - 1
    flat_kinds = []
    for (m, _), (rows, pbases, pdirs) in kinds.items():
        live = alive[owner[rows]]
        if not live.any():
            continue
        flat_kinds.append(_FlatKind(renumber[owner[rows[live]]], quot[rows[live]],
                                    None if m < 0 else quots,
                                    pbases[live], None if pdirs is None else pdirs[live],
                                    int(alive.sum())))
    who = np.flatnonzero(alive)
    if not len(who):
        return out
    searching = np.zeros(len(who), dtype=bool)
    searching[renumber[owner[alive[owner]]]] = True
    for a, res in zip(who.tolist(), _search(points[who], [eps[a] for a in who.tolist()],
                                            [seeds[a] for a in who.tolist()],
                                            [samples[a] for a in who.tolist()],
                                            [bases[a] for a in who.tolist()],
                                            flat_kinds, searching)):
        out[a] = res
    return out


class _FlatKind:
    """The projected flats of one kind (quotient dimension m, or None for
    the ambient space; flat dimension k) of a stack of searches, padded per
    group of one search and one quotient: ``bases`` (G, T, m), ``dirs``
    (G, T, k, m) or None and ``valid`` (G, T); the quotient complements
    ``comps`` (G, m, n) or None.  The groups of search a are ``first[a]``
    to ``first[a] + count[a]``.  Built from the search ``owner`` and the
    quotient ``quot`` (a plane of ``quots``, or None for the ambient space)
    of each flat."""

    def __init__(self, owner, quot, quots, bases, dirs, searches: int):
        order = np.lexsort((quot, owner))
        owner, quot = owner[order], quot[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (quot[1:] != quot[:-1])
        heads = np.flatnonzero(new)
        gid = np.cumsum(new) - 1
        pos = np.arange(len(order)) - heads[gid]
        self.count = np.bincount(owner[heads], minlength=searches)
        self.first = np.cumsum(self.count) - self.count
        self.comps = None if quots is None else quots.complements(quot[heads])
        shape = (len(heads), int(pos.max()) + 1)
        self.bases = np.zeros(shape + bases.shape[1:])
        self.bases[gid, pos] = bases[order]
        self.dirs = None
        if dirs is not None:
            self.dirs = np.zeros(shape + dirs.shape[1:])
            self.dirs[gid, pos] = dirs[order]
        self.valid = np.zeros(shape, dtype=bool)
        self.valid[gid, pos] = True


class _Scorer:
    """|q - p| and min(epsilon - |q - p|, clearance of q) of candidate rows
    whose searches are ``owner``, scored against the flats of their
    searches.  What depends only on the owners is gathered once; each call
    scores one (len(owner), n) stack of candidates.

    Per kind, each (candidate, group) pair is projected by its own stacked
    product and measured against the group's flats by
    :func:`_rejection_norms`, as one search's candidates are measured
    against one group, so every value has the point-by-point bits.
    """

    def __init__(self, owner: np.ndarray, points: np.ndarray, eps: np.ndarray,
                 kinds: list):
        self.points, self.eps = points[owner], eps[owner]
        self.parts = []
        for kind in kinds:
            count = kind.count[owner]
            rows = np.repeat(np.arange(len(owner)), count)
            g = kind.first[owner[rows]] + np.arange(len(rows)) \
                - np.repeat(np.cumsum(count) - count, count)
            if not len(g):
                continue
            pad = ~kind.valid[g]
            self.parts.append((None if (count == 1).all() else rows,   # None: one group each
                               None if kind.comps is None else kind.comps[g].swapaxes(1, 2),
                               kind.bases[g], None if kind.dirs is None else kind.dirs[g],
                               pad if pad.any() else None))

    def __call__(self, qs: np.ndarray):
        rel = qs - self.points
        dist = np.sqrt(np.vecdot(rel, rel))
        val = self.eps - dist
        for rows, comps_t, bases, dirs, pad in self.parts:
            x = qs if rows is None else qs[rows]
            if comps_t is not None:
                x = (x[:, None, :] @ comps_t)[:, 0]
            d = _rejection_norms(x[:, None, :] - bases, dirs)
            if pad is not None:
                d[pad] = np.inf
            if rows is None:
                np.minimum(val, d.min(axis=1), out=val)
            else:
                np.minimum.at(val, rows, d.min(axis=1))
        return dist, val


def _search(points, eps, seeds, samples, bases, kinds, searching) -> list:
    """The seeded search of every search of a stack, in lockstep: per
    search ``(q, delta)``.  A searching search scores ``samples[a]`` seeded
    points of its ball, keeping the first strictly better one, then
    refines along its search axes (the rows of ``bases[a]``) with
    shrinking steps, taking the first improving move of each sweep, as it
    does run alone.

    The seeded samples are one stack per search dimension and basis memory
    order, each search keeping its own first best sample.  Each refinement
    round of every search is a state (step, round, next move); one pass
    scores the remaining moves of every live search as one stack, and each
    search takes its own first improving move, so each follows the sweep it
    would follow alone.
    """
    count = len(points)
    budgets = np.array(eps, dtype=float)
    best_q = points.copy()
    best_val = _Scorer(np.arange(count), points, budgets, kinds)(points)[1]

    # seeded samples, one stack per (search dimension, basis memory order)
    draws: dict = {}
    for a in np.flatnonzero(searching).tolist():
        if samples[a]:
            ndof = bases[a].shape[0]
            rng = np.random.default_rng([seeds[a], 2026])
            dirs = rng.normal(size=(samples[a], ndof))
            draws.setdefault((ndof, bool(bases[a].flags.c_contiguous)), []).append(
                (a, dirs, rng.uniform(0.0, 1.0, size=samples[a])))
    for (ndof, c_order), rows in draws.items():
        who = np.array([a for a, _, _ in rows])
        sizes = np.array([len(u) for _, _, u in rows])
        owner = np.repeat(who, sizes)
        dirs = np.concatenate([d for _, d, _ in rows])
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        radii = budgets[owner] * np.concatenate([u for _, _, u in rows]) \
            ** (1.0 / max(ndof, 1))
        offsets = (dirs / norms[:, None]) * radii[:, None]
        basis = _stack([bases[a] for a in who.tolist()], c_order)
        local = np.repeat(np.arange(len(rows)), sizes)
        qs = points[owner] + (offsets[:, None, :] @ basis[local])[:, 0, :]
        vals = _Scorer(owner, points, budgets, kinds)(qs)[1]
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
    nmoves = np.array([2 * b.shape[0] for b in bases])
    moves = np.zeros((count, len(REFINE_STEPS), max(int(nmoves.max()), 1),
                      points.shape[1]))
    by_ndof: dict = {}
    for a, b in enumerate(bases):
        by_ndof.setdefault(b.shape[0], []).append(a)
    for ndof, who in by_ndof.items():
        axes = np.repeat(np.stack([bases[a] for a in who]), 2, axis=1)
        signs = np.tile([1.0, -1.0], ndof)
        for t, step in enumerate(REFINE_STEPS):
            moves[who, t, :2 * ndof] = (signs * step * budgets[who][:, None])[..., None] * axes
    # the state of every refining search: the step, the round at that
    # step, the first move of the sweep that still counts and whether the
    # sweep improved; a finished search stays in place, masked
    live = np.flatnonzero(searching & (nmoves > 0))
    width = np.arange(moves.shape[2])
    ar = np.arange(len(live))
    q, val, moves, nmoves, budget = best_q[live], best_val[live], moves[live], \
        nmoves[live], budgets[live]
    movable = width < nmoves[:, None]
    step, rounds, start = (np.zeros(len(live), dtype=np.intp) for _ in range(3))
    improved = np.zeros(len(live), dtype=bool)
    going = np.ones(len(live), dtype=bool)
    score = _Scorer(np.repeat(live, len(width)), points, budgets, kinds)
    while going.any():
        # every move starts at the latest best point, so after an accepted
        # move only the later ones of the sweep count; each search scores
        # its whole padded sweep and takes its first counting move that
        # stays in the ball and improves
        qs = (q[:, None, :] + moves[ar, np.minimum(step, len(REFINE_STEPS) - 1)]) \
            .reshape(-1, points.shape[1])
        dist, vals = score(qs)
        vals = vals.reshape(len(live), -1)
        better = (going[:, None] & movable) & (width >= start[:, None]) \
            & ~(dist.reshape(len(live), -1) > budget[:, None]) & (vals > val[:, None])
        first = better.argmax(axis=1)
        hit = better[ar, first]
        took = np.flatnonzero(hit)
        q[took] = qs[took * len(width) + first[took]]
        val[took] = vals[took, first[took]]
        improved |= hit
        start[took] = first[took] + 1
        # a sweep ends when no move improves or none is left; then the next
        # round follows an improving sweep, and the next step any other
        ended = ~hit | (start >= nmoves)
        again = ended & improved & (rounds + 1 < REFINE_ROUNDS)
        rounds[ended] = np.where(again, rounds + 1, 0)[ended]
        step += ended & ~again
        start[ended], improved[ended] = 0, False
        going = step < len(REFINE_STEPS)
    best_q[live], best_val[live] = q, val

    # |q - p| as np.linalg.norm takes it: the root of the same dot product
    rel = best_q - points
    moved = np.sqrt(np.vecdot(rel, rel)).tolist()
    out = []
    for a in range(count):
        delta = max(float(best_val[a]), 0.0)
        delta = min(delta, eps[a] - moved[a])
        out.append((best_q[a], max(delta, 0.0)))
    return out


# ---------------------------------------------------------------------------
# stars as index arrays
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


def _ranges(start: np.ndarray, jobs: np.ndarray):
    """The rows ``start[j]`` to ``start[j + 1]`` of each job j of ``jobs``,
    concatenated; the place in ``jobs`` of each row's job; and where each
    job's rows start among them, with their count at the end."""
    lo = start[jobs]
    lengths = start[jobs + 1] - lo
    ends = np.cumsum(lengths)
    job = np.repeat(np.arange(len(jobs)), lengths)
    rows = np.arange(len(job)) + np.repeat(lo - ends + lengths, lengths)
    return rows, job, np.concatenate([[0], ends])


def _starts(job: np.ndarray, count: int) -> np.ndarray:
    """Where each of ``count`` jobs starts in a table whose rows belong to
    the jobs ``job`` (nondecreasing), and the row count at the end."""
    return np.concatenate([[0], np.cumsum(np.bincount(job, minlength=count))])


class _Stars:
    """The processed stars of a stack of vertices (jobs), as index arrays
    into a coordinate table that every kernel takes beside them.

    Each table lists its rows job by job, job j's from ``*_start[j]`` to
    ``*_start[j + 1]``:

    - slots, a job's foliations in order: ``slot_plane`` indexes the
      distinct :class:`Plane` objects ``planes``, and ``slot_u`` is the
      foliation's place in its job's list;
    - stars, a job's star simplices in order: their coordinate ids ``ids``
      (S, w), padded with -1, and ``sizes``;
    - pairs, each foliation and star simplex checked against it, in
      (foliation, simplex) order: ``pair_slot`` and ``pair_star``;
    - joins, per pair the faces of :func:`_join_faces` in order, whose
      joins with the vertex must be semitransverse to the foliation: their
      coordinate ids ``join_ids`` (padded), sizes ``join_d``, pairs
      ``join_pair`` and places ``join_face`` in the ``_join_faces`` list.

    ``planes`` is a :class:`_Planes`, and ``room`` holds each slot's
    projected search dimension (:func:`_search_dims`) for the search basis
    that the job's constraint flat leaves, ``constraints[j]``.
    """

    def __init__(self, n, planes, slot_plane, slot_u, slot_start, ids, sizes,
                 star_start, pair_slot, pair_star, constraints):
        self.n, self.planes = n, planes
        self.slot_plane, self.slot_u, self.slot_start = slot_plane, slot_u, slot_start
        self.ids, self.sizes, self.star_start = ids, sizes, star_start
        self.pair_slot, self.pair_star = pair_slot, pair_star
        count = len(slot_start) - 1
        self.slot_job = np.repeat(np.arange(count), np.diff(slot_start))
        self.pair_start = np.searchsorted(self.slot_job[pair_slot], np.arange(count + 1))
        self.room = _search_dims([_search_basis(n, c) for c in constraints],
                                 np.column_stack([self.slot_job, slot_plane]), planes)
        self.rows = None

        size = sizes[pair_star]
        cap = n - self.planes.rank[slot_plane[pair_slot]]
        key = size * (n + 1) + cap
        groups = [(k, np.flatnonzero(key == k)) for k in _distinct(key).tolist()]
        counts = np.zeros(len(pair_star), dtype=np.intp)
        for k, rows in groups:
            counts[rows] = len(_join_faces(*divmod(k, n + 1))[0])
        first = np.cumsum(counts) - counts
        total = int(counts.sum())
        self.join_ids = np.full((total, ids.shape[1]), -1, dtype=np.intp)
        self.join_d = np.zeros(total, dtype=np.intp)
        self.join_pair = np.zeros(total, dtype=np.intp)
        self.join_face = np.zeros(total, dtype=np.intp)
        for k, rows in groups:
            for d, at, combos in _join_faces(*divmod(k, n + 1))[1]:
                place = np.arange(at, at + len(combos))
                pos = first[rows][:, None] + place
                self.join_ids[pos, :d] = ids[pair_star[rows]][:, combos]
                self.join_d[pos], self.join_face[pos] = d, place
                self.join_pair[pos] = rows[:, None]
        self.join_start = np.append(first, total)[self.pair_start]

    @property
    def count(self) -> int:
        return len(self.slot_start) - 1

    def take(self, jobs: np.ndarray) -> "_Stars":
        """The stars of ``jobs`` as a stack of their own; its ``rows`` are
        the places of its joins among this stack's."""
        new = object.__new__(_Stars)
        new.n, new.planes = self.n, self.planes
        slots, new.slot_job, new.slot_start = _ranges(self.slot_start, jobs)
        stars, _, new.star_start = _ranges(self.star_start, jobs)
        pairs, pair_job, new.pair_start = _ranges(self.pair_start, jobs)
        joins, join_job, new.join_start = _ranges(self.join_start, jobs)
        new.slot_plane, new.slot_u, new.room = self.slot_plane[slots], self.slot_u[slots], \
            self.room[slots]
        new.ids, new.sizes = self.ids[stars], self.sizes[stars]
        # an id into another table moves with its job's rows there
        new.pair_slot = self.pair_slot[pairs] \
            + (new.slot_start[:-1] - self.slot_start[jobs])[pair_job]
        new.pair_star = self.pair_star[pairs] \
            + (new.star_start[:-1] - self.star_start[jobs])[pair_job]
        new.join_pair = self.join_pair[joins] \
            + (new.pair_start[:-1] - self.pair_start[jobs])[join_job]
        new.join_ids, new.join_d = self.join_ids[joins], self.join_d[joins]
        new.join_face = self.join_face[joins]
        new.rows = joins
        return new


def _requested_stars(reqs: list):
    """The :class:`_Stars` of some requests over the table of their star
    simplices' rows: ``(stars, coords)``."""
    planes, rows = {}, []
    slot_plane, slot_u, slot_job, ids, sizes, star_job, pairs = [], [], [], [], [], [], []
    for j, req in enumerate(reqs):
        folis = req.foliations
        star_folis = req.star_foliations
        if star_folis is None:
            star_folis = [tuple(range(len(folis)))] * len(req.star_simplices)
        slot0, star0 = len(slot_plane), len(sizes)
        for u, v in enumerate(folis):
            slot_plane.append(planes.setdefault(v, len(planes)))
            slot_u.append(u)
            slot_job.append(j)
        for s in req.star_simplices:
            ids.append(list(range(len(rows), len(rows) + len(s))))
            sizes.append(len(s))
            star_job.append(j)
            rows += list(s)
        pairs += [(slot0 + u, star0 + si) for u in range(len(folis))
                  for si, us in enumerate(star_folis) if u in us]
    n = reqs[0].point.shape[0]
    table = np.full((len(ids), max(sizes, default=0)), -1, dtype=np.intp)
    for i, row in enumerate(ids):
        table[i, :len(row)] = row
    pair_slot, pair_star = (np.array(col, dtype=np.intp).reshape(-1)
                            for col in (zip(*pairs) if pairs else ([], [])))
    stars = _Stars(n, _Planes(list(planes)), np.array(slot_plane, dtype=np.intp),
                   np.array(slot_u, dtype=np.intp),
                   _starts(np.array(slot_job, dtype=np.intp), len(reqs)), table,
                   np.array(sizes, dtype=np.intp),
                   _starts(np.array(star_job, dtype=np.intp), len(reqs)), pair_slot, pair_star,
                   [req.constraint_flat for req in reqs])
    coords = np.array(rows, dtype=float).reshape(-1, n)
    return stars, coords


# ---------------------------------------------------------------------------
# the dimension induction
# ---------------------------------------------------------------------------

def _join_margins(stars: _Stars, coords: np.ndarray, points: np.ndarray):
    """The semitransversality margin of each join of ``stars`` with apex
    ``points[j]`` for job j (zero where the base face is not transverse),
    and per job whether a base is degenerate (the
    :class:`DegenerateSimplex` its vertex raises).

    The joins take one :func:`_semitrans_margins` call per (base size,
    foliation rank), so a join has the bits of its own
    :func:`semitrans_margin`.
    """
    job = np.repeat(np.arange(stars.count), np.diff(stars.join_start))
    plane = stars.slot_plane[stars.pair_slot[stars.join_pair]]
    key = stars.join_d * (stars.n + 1) + stars.planes.rank[plane]
    margins = np.zeros(len(job))
    degenerate = np.zeros(stars.count, dtype=bool)
    for k in _distinct(key).tolist():
        sel = np.flatnonzero(key == k)
        d, r = divmod(k, stars.n + 1)
        at = stars.planes.at[plane[sel]]
        got, status = _semitrans_margins(points[job[sel]], coords[stars.join_ids[sel, :d]],
                                         stars.planes.bases[r][at], stars.planes.comps[r][at])
        margins[sel] = np.where(status == 1, 0.0, got)
        degenerate[job[sel[status == 2]]] = True
    return margins, degenerate


def _star_errors(stars: _Stars, coords: np.ndarray, constraints: list) -> list:
    """The error each job of :func:`_perturb` meets before its search, or
    None: for each foliation u in turn, the first star simplex of u that
    is degenerate (:class:`DegenerateSimplex`) or not transverse to it
    (:class:`StarNotTransverse`), then a constraint flat that is not
    transverse to it (:class:`PreconditionViolated`).

    The star simplices of dimension at least 1 take one
    :func:`_transverse_stack` call per (size, foliation rank), and the
    constraint directions one :func:`_transverse` call per (dimension,
    rank).
    """
    n = stars.n
    plane = stars.slot_plane[stars.pair_slot]
    size = stars.sizes[stars.pair_star]
    code = np.zeros(len(plane), dtype=np.int8)   # 1 degenerate, 2 not transverse
    key = size * (n + 1) + stars.planes.rank[plane]
    for k in _distinct(key[size >= 2]).tolist():
        sel = np.flatnonzero(key == k)
        s, r = divmod(k, n + 1)
        transverse, flat = _transverse_stack(coords[stars.ids[stars.pair_star[sel], :s]],
                                             stars.planes.bases[r][stars.planes.at[plane[sel]]])
        code[sel] = np.where(flat, 1, np.where(transverse, 0, 2))
    blocked = np.zeros(len(stars.slot_plane), dtype=bool)
    groups: dict = {}
    for s, j in enumerate(stars.slot_job.tolist()):
        c = constraints[j]
        if c is not None and c.direction is not None:
            groups.setdefault((c.dim, stars.planes.rank[stars.slot_plane[s]]), []).append(s)
    for (_, r), slots in groups.items():
        dirs = np.stack([constraints[j].direction.basis for j in stars.slot_job[slots].tolist()])
        at = stars.planes.at[stars.slot_plane[slots]]
        blocked[slots] = ~_transverse(dirs, stars.planes.bases[r][at])
    bad = np.zeros(stars.count, dtype=bool)
    bad[stars.slot_job[stars.pair_slot[code > 0]]] = True
    bad[stars.slot_job[blocked]] = True
    bounds = np.searchsorted(stars.pair_slot, np.arange(len(blocked) + 1)).tolist()
    out: list = [None] * stars.count
    for j in np.flatnonzero(bad).tolist():
        # the checks of a job in order: each slot's pairs, then its constraint
        for s in range(stars.slot_start[j], stars.slot_start[j + 1]):
            u = stars.slot_u[s]
            i = next((i for i in range(bounds[s], bounds[s + 1]) if code[i]), None)
            if i is not None:
                out[j] = DegenerateSimplex("simplex directions are dependent") \
                    if code[i] == 1 else StarNotTransverse(
                        f"a star simplex of dim {size[i] - 1} is not transverse to foliation {u}")
                break
            if blocked[s]:
                out[j] = PreconditionViolated(
                    f"constraint flat is not transverse to foliation {u}")
                break
    return out


def _stage_faces(stars: _Stars, coords: np.ndarray, active: np.ndarray, d: int):
    """The flats that stage d of :func:`_perturb` clears for the ``active``
    jobs, as :func:`_clear` takes them but with the slot of each flat in
    place of its plane (the owner is the job): the affine
    span of every face of d vertices of a star simplex, against each
    foliation u of the simplex with n - k >= d, once per job, u and set of
    coordinates rounded to 12 digits, in (u, simplex, face) order.

    The faces are the joins of d vertices that ``stars`` tabulates, and
    their spans take one :func:`_row_spaces` call, each direction basis in
    the layout of a call of its own.
    """
    n = stars.n
    job = stars.slot_job[stars.pair_slot]
    sel = np.flatnonzero((stars.join_d == d) & active[job[stars.join_pair]])
    pair = stars.join_pair[sel]
    faces = coords[stars.join_ids[sel, :d].reshape(len(sel), d)]
    rounded = np.round(faces, 12)
    if d > 1:     # each face's rows in lexicographic order
        rows = rounded.reshape(-1, n)
        order = np.lexsort([rows[:, c] for c in range(n - 1, -1, -1)]
                           + [np.repeat(np.arange(len(sel)), d)])
        rounded = rows[order].reshape(rounded.shape)
    key = np.concatenate([stars.pair_slot[pair].astype(np.int64)[:, None].view(float),
                          rounded.reshape(len(sel), d * n)], axis=1)
    kept = np.sort(_unique_rows(key)[0])
    faces, pair = faces[kept], pair[kept]
    spans = []
    if d > 1:
        bases, ranks = _row_spaces(faces[:, 1:] - faces[:, :1])
        u = bases.swapaxes(1, 2)
        ms = n - stars.planes.rank[stars.slot_plane[stars.pair_slot[pair]]]
        for m, r in set(zip(ms.tolist(), ranks.tolist())):
            if r:
                rows = np.flatnonzero((ms == m) & (ranks == r))
                spans.append((rows, u[rows].swapaxes(1, 2)[:, :r]))
    return job[pair], stars.pair_slot[pair], faces[:, 0], spans


def _perturb(stars: _Stars, coords: np.ndarray, points: np.ndarray, eps: list,
             seeds: list, samples: list, constraints: list):
    """Move each job's point so all joins with its star become
    semitransverse, bit for bit what each gets alone.  Job j starts at
    ``points[j]`` with budget ``eps[j]``, pinned to ``constraints[j]`` (an
    :class:`AffineFlat` or None), its star rows in ``coords``.

    Stage d of the induction clears the projected affine spans of the
    (d-1)-dimensional star faces inside the ball left by stage d-1, so the
    per-dimension margins are non-increasing.  The inputs are checked in
    one array pass and the stars in one :func:`_star_errors` pass; stage d
    of every job that has one is one :func:`_clear` call, and the
    certificates, the realized margin of every join, one
    :func:`_join_margins` call.  Returns ``(errors, points, achieved,
    moved, margins, per_dim)``: per job its error or None, its point, its
    achieved delta and move length, per join its certified margin, and per
    job and stage the margin left (NaN past its last stage).
    """
    count, n = len(points), stars.n
    errors = _check_searches(points, eps, samples, seeds)
    for j, error in enumerate(_star_errors(stars, coords, constraints)):
        errors[j] = errors[j] or error
    bases = [_search_basis(n, c) for c in constraints]
    cap = np.zeros(count, dtype=np.intp)
    np.maximum.at(cap, stars.slot_job, n - stars.planes.rank[stars.slot_plane])
    d_max = np.minimum(cap, [n if c is None else c.dim for c in constraints])
    current = np.array(points, dtype=float)
    delta = list(eps)
    per_dim = np.full((count, int(d_max.max(initial=0))), np.nan)
    for d in range(1, per_dim.shape[1] + 1):
        active = np.array([e is None for e in errors], dtype=bool) & (d <= d_max)
        owner, slot, base, spans = _stage_faces(stars, coords, active, d)
        jobs = _distinct(owner)
        for j in np.flatnonzero(active).tolist():
            per_dim[j, d - 1] = delta[j]
        results = _clear(np.searchsorted(jobs, owner), stars.slot_plane[slot], base, spans,
                         stars.planes, stars.room[slot], current[jobs],
                         [delta[j] for j in jobs.tolist()],
                         [seeds[j] * STAGE_STRIDE + d for j in jobs.tolist()],
                         [samples[j] for j in jobs.tolist()], [bases[j] for j in jobs.tolist()])
        for j, res in zip(jobs.tolist(), results):
            if isinstance(res, Exception):
                errors[j] = res
            else:
                current[j], delta[j] = res
                per_dim[j, d - 1] = delta[j]
    margins, degenerate = _join_margins(stars, coords, current)
    rel = current - points     # as in _search
    moved = np.sqrt(np.vecdot(rel, rel)).tolist()
    achieved = [max(min(delta[j], eps[j] - moved[j]), 0.0) for j in range(count)]
    for j in np.flatnonzero(degenerate).tolist():
        errors[j] = errors[j] or _join_error(2)
    return errors, current, achieved, moved, margins, per_dim


def _certificates(stars: _Stars, margins: np.ndarray) -> list:
    """Per job of ``stars``, ``(u, si, idx, margin)`` for each of its joins
    in order: the foliation u, the star simplex si, the face ``idx`` (its
    places in the simplex) and the join's entry of ``margins``."""
    pair = stars.join_pair
    slot = stars.pair_slot[pair]
    u = stars.slot_u[slot].tolist()
    si = (stars.pair_star[pair] - stars.star_start[stars.slot_job[slot]]).tolist()
    size = stars.sizes[stars.pair_star[pair]].tolist()
    cap = (stars.n - stars.planes.rank[stars.slot_plane[slot]]).tolist()
    rows = list(zip(u, si, size, cap, stars.join_face.tolist(), margins.tolist()))
    return [[(u, si, _join_faces(size, cap)[0][face], m) for u, si, size, cap, face, m
             in rows[a:b]] for a, b in itertools.pairwise(stars.join_start.tolist())]


def perturb_vertex(req: PerturbationRequest) -> PerturbationResult:
    """Perturb one point so all joins with the star become semitransverse,
    raising the error it meets: one :func:`_perturb` call on its stars.  The
    certificate lists ``(u, si, idx, margin)`` for every join in
    :func:`_join_faces` order per (foliation u, star simplex si)."""
    stars, coords = _requested_stars([req])
    errors, points, achieved, moved, margins, per_dim = _perturb(
        stars, coords, req.point[None], [req.epsilon], [req.seed], [req.samples],
        [req.constraint_flat])
    if errors[0] is not None:
        raise errors[0]
    return PerturbationResult(
        point=points[0],
        achieved_delta=float(achieved[0]),
        moved=moved[0],
        per_dimension_margins={d: m for d, m in enumerate(per_dim[0].tolist(), 1) if m == m},
        certificate=_certificates(stars, margins)[0],
    )
