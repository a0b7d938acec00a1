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
for a whole vertex induction and hands every kernel a wave's run of it
(:meth:`_Stars.slice`), so no plane, flat or request is built per vertex.
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
    order.  Lists of plain floats and ints skip the per-item type tests."""
    budgets = np.array(eps if set(map(type, eps)) <= {float, int} else
                       [e if isinstance(e, numbers.Real) else np.nan for e in eps], dtype=float)
    bad_point = ~np.isfinite(points).all(axis=1)
    bad_budget = ~(np.isfinite(budgets) & (budgets >= 0))
    counted = set(map(type, itertools.chain(samples, seeds))) <= {int} \
        and min(samples, default=0) >= 0 and min(seeds, default=0) >= 0
    out: list = [None] * len(points)
    for j in np.flatnonzero(bad_point | bad_budget).tolist() if counted else range(len(points)):
        if bad_point[j]:
            message = f"point must be finite, got {points[j]}"
        elif bad_budget[j]:
            message = f"budget must be finite and nonnegative, got {eps[j]!r}"
        elif not _is_count(samples[j]):
            message = f"samples must be a nonnegative integer, got {samples[j]!r}"
        elif not _is_count(seeds[j]):
            message = f"seed must be a nonnegative integer, got {seeds[j]!r}"
        else:
            continue
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
    room = _search_dims(bases, np.column_stack([owner, quot]), quots)
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
    projected into the quotient, once per distinct row, from one stacked
    SVD per (search dimension, quotient dimension, basis memory order)."""
    pairs = pairs.reshape(-1, 2)
    first, inverse, _ = _unique_rows(pairs)
    dims = np.zeros(len(first), dtype=np.intp)
    if not len(pairs):
        return dims
    search, quot = pairs[first, 0], pairs[first, 1]
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
    return dims[inverse]


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
        if live.any():
            flat_kinds.append((renumber[owner[rows[live]]], quot[rows[live]],
                               None if m < 0 else quots, pbases[live],
                               None if pdirs is None else pdirs[live]))
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


class _Scorer:
    """min(epsilon - |q - p|, clearance of q) of candidate rows whose
    searches are ``owner``, scored against the flats of their searches.
    What depends only on the owners is gathered once, for every row a
    search will score; :meth:`rows` takes a run of them without a new
    gather, and each call scores one (rows, n) stack of candidates.

    A kind of flats (quotient dimension m, or None for the ambient space;
    flat dimension k) is ``(search, quot, quots, bases, dirs)``: per flat
    its search, its quotient (a plane of ``quots``, or None for the ambient
    space), its projected base (m) and direction basis (k, m) or None.  Its
    flats are padded per group of one search and one quotient, and each
    (candidate, group) pair is projected by its own stacked product and
    measured against the group's flats by :func:`_rejection_norms`, as one
    search's candidates are measured against one group, so every value has
    the point-by-point bits.  Points pad their bases with +inf, so a
    padding cell measures +inf and never wins a minimum; lines and planes
    pad with zeros and mask the padding, because 0 * inf would be NaN.
    The least over a group is one ``np.minimum`` per column.
    """

    def __init__(self, owner: np.ndarray, points: np.ndarray, eps: np.ndarray,
                 kinds: list):
        self.points, self.eps = points[owner], eps[owner]
        self.parts = []
        for search, quot, quots, bases, dirs in kinds:
            order = np.lexsort((quot, search))
            search, quot = search[order], quot[order]
            new = np.ones(len(order), dtype=bool)
            new[1:] = (search[1:] != search[:-1]) | (quot[1:] != quot[:-1])
            heads, gid = np.flatnonzero(new), np.cumsum(new) - 1
            cell = (gid, np.arange(len(order)) - heads[gid])
            shape = (len(heads), int(cell[1].max()) + 1)
            padded = np.full(shape + bases.shape[1:], np.inf if dirs is None else 0.0)
            padded[cell] = bases[order]
            groups = np.bincount(search[heads], minlength=len(points))
            count = groups[owner]
            ends = np.cumsum(count)
            rows = np.repeat(np.arange(len(owner)), count)
            g = (np.cumsum(groups) - groups)[owner[rows]] + np.arange(len(rows)) \
                - np.repeat(ends - count, count)
            pad = None
            if dirs is not None:
                pdirs, pad = np.zeros(shape + dirs.shape[1:]), np.ones(shape, dtype=bool)
                pdirs[cell], pad[cell] = dirs[order], False
                dirs, pad = pdirs[g], pad[g]
            self.parts.append((np.append(0, ends), None if (count == 1).all() else rows,
                               None if quots is None else
                               quots.complements(quot[heads][g]).swapaxes(1, 2),
                               padded[g], dirs, pad))

    def rows(self, a: int, b: int) -> "_Scorer":
        """The scorer of rows ``a`` to ``b``, from views of this one's gathers."""
        new = object.__new__(_Scorer)
        new.points, new.eps = self.points[a:b], self.eps[a:b]
        new.parts = []
        for bounds, rows, *arrays in self.parts:
            lo, hi = bounds[[a, b]].tolist()
            new.parts.append((None if rows is None else rows[lo:hi] - a,
                              *(None if x is None else x[lo:hi] for x in arrays)))
        return new

    def __call__(self, qs: np.ndarray) -> np.ndarray:
        rel = qs - self.points
        val = self.eps - np.sqrt(np.vecdot(rel, rel))
        for rows, comps_t, bases, dirs, pad in self.parts:
            x = qs if rows is None else qs[rows]     # None: one group each
            if comps_t is not None:
                x = (x[:, None, :] @ comps_t)[:, 0]
            d = _rejection_norms(x[:, None, :] - bases, dirs)
            if pad is not None:
                d[pad] = np.inf
            low = val if rows is None else d[:, 0]
            for t in range(rows is not None, d.shape[1]):
                np.minimum(low, d[:, t], out=low)
            if rows is not None:
                np.minimum.at(val, rows, low)
        return val


def _search(points, eps, seeds, samples, bases, kinds, searching) -> list:
    """The seeded search of every search of a stack, in lockstep: per
    search ``(q, delta)``.  A searching search scores ``samples[a]`` seeded
    points of its ball, keeping the first strictly better one, then
    refines along its search axes (the rows of ``bases[a]``) with
    shrinking steps, taking the first improving move of each sweep, as it
    does run alone.

    One :class:`_Scorer` gathers the flats of every row the search scores.
    The start points and the samples are one call, the samples drawn as one
    stack per search dimension and basis memory order.  Each refinement
    pass scores the whole padded sweep of every refining search as one
    stack, and each takes its own first improving move among those that
    still count, so it follows the sweep it would follow alone; the few
    whose sweep ended go on to their next round or step in Python.  No pass
    tests whether a move leaves the ball: the start value min(epsilon,
    clearances) is at least 0 and values only grow, while a move to
    distance d > epsilon scores at most fl(epsilon - d) < 0, as rounding
    keeps the sign of a difference.
    """
    count, n = points.shape
    budgets = np.array(eps, dtype=float)

    # each search's start point, then its seeded samples, padded with copies
    # of the start point: the first best of a row is the start point unless
    # a sample does strictly better.  The samples are one stack per (search
    # dimension, basis memory order).
    draws: dict = {}
    searchers = searching.nonzero()[0].tolist()
    for a in searchers:
        if samples[a]:
            ndof = bases[a].shape[0]
            rng = np.random.default_rng([seeds[a], 2026])
            dirs = rng.normal(size=(samples[a], ndof))
            draws.setdefault((ndof, bool(bases[a].flags.c_contiguous)), []).append(
                (a, dirs, rng.uniform(0.0, 1.0, size=samples[a])))
    grid = np.repeat(points[:, None, :], 1 + max((samples[a] for a in searchers), default=0), 1)
    for (ndof, c_order), rows in draws.items():
        group, dirs, us = zip(*rows)
        size = [len(u) for u in us]
        local = np.repeat(np.arange(len(rows)), size)
        owner = np.array(group)[local]
        dirs = np.concatenate(dirs)
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        radii = budgets[owner] * np.concatenate(us) ** (1.0 / max(ndof, 1))
        offsets = (dirs / norms[:, None]) * radii[:, None]
        basis = _stack([bases[a] for a in group], c_order)
        grid[owner, np.arange(1, len(owner) + 1) - np.repeat(np.cumsum(size) - size, size)] = \
            points[owner] + (offsets[:, None, :] @ basis[local])[:, 0, :]

    # the moves of one sweep in order: +axis, -axis for each search axis,
    # per refining search and step, padded to the longest sweep
    nmoves = np.array([2 * b.shape[0] for b in bases])
    live = (searching & (nmoves > 0)).nonzero()[0]
    limit = nmoves[live]
    width = int(limit.max(initial=2))
    axes = np.zeros((len(live), width, n))
    for size in set(limit.tolist()):
        at = (limit == size).nonzero()[0]
        axes[at, :size] = np.repeat(np.array([bases[a] for a in live[at].tolist()]), 2, axis=1)
    moves = (np.multiply.outer(REFINE_STEPS, np.tile([1.0, -1.0], width // 2))
             * budgets[live][:, None, None])[..., None] * axes[:, None]

    scored = grid.shape[0] * grid.shape[1]
    score = _Scorer(np.concatenate([np.repeat(np.arange(count), grid.shape[1]),
                                    np.repeat(live, width)]), points, budgets, kinds)
    vals = score.rows(0, scored)(grid.reshape(-1, n)).reshape(count, -1)
    pick = vals.argmax(axis=1)
    best_q, best_val = grid[np.arange(count), pick], vals[np.arange(count), pick]

    # the state of every refining search: the step, the round at that step,
    # the first move of the sweep that still counts and whether the sweep
    # improved; a finished search keeps a move limit of 0
    score = score.rows(scored, scored + len(live) * width)
    ar, cols = np.arange(len(live)), np.arange(width)
    window = (cols >= np.arange(width + 1)[:, None, None]) \
        & (cols < np.arange(width + 1)[:, None])    # [start, limit): the moves that count
    q, val, sweep = best_q[live], best_val[live], moves[:, 0].copy()
    start = np.zeros(len(live), dtype=np.intp)
    step, rounds, improved = [0] * len(live), [0] * len(live), np.zeros(len(live), dtype=bool)
    going = len(live)
    while going:
        # every move starts at the latest best point, so after an accepted
        # move only the later ones of the sweep count
        qs = (q[:, None, :] + sweep).reshape(-1, n)
        vals = score(qs).reshape(len(live), width)
        better = (vals > val[:, None]) & window[start, limit]
        first = better.argmax(axis=1)
        hit = better[ar, first]
        took = hit.nonzero()[0]
        at = first[took]
        q[took] = qs[took * width + at]
        val[took] = vals[took, at]
        start[took], improved[took] = at + 1, True
        # a sweep ends when no move improves or none is left; then the next
        # round follows an improving sweep, and the next step any other
        for i in (~hit | (start >= limit)).nonzero()[0].tolist():
            if not limit[i]:
                continue
            if improved[i] and rounds[i] + 1 < REFINE_ROUNDS:
                rounds[i] += 1
            elif step[i] + 1 < len(REFINE_STEPS):
                rounds[i], step[i] = 0, step[i] + 1
                sweep[i] = moves[i, step[i]]
            else:
                limit[i], going = 0, going - 1
            start[i], improved[i] = 0, False
    best_q[live], best_val[live] = q, val

    # |q - p| as np.linalg.norm takes it: the root of the same dot product
    rel = best_q - points
    return [(q, max(min(max(v, 0.0), e - m), 0.0)) for q, v, e, m in
            zip(best_q, best_val.tolist(), eps, np.sqrt(np.vecdot(rel, rel)).tolist())]


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
      distinct :class:`Plane` objects ``planes``, ``slot_u`` is the
      foliation's place in its job's list and ``slot_job`` its job;
    - stars, a job's star simplices in order: their coordinate ids ``ids``
      (S, w), padded with -1, and ``sizes``;
    - pairs, each foliation and star simplex checked against it, in
      (foliation, simplex) order: ``pair_slot`` and ``pair_star``;
    - joins, per pair the faces of :func:`_join_faces` in order, whose
      joins with the vertex must be semitransverse to the foliation: their
      coordinate ids ``join_ids`` (padded), sizes ``join_d``, pairs
      ``join_pair``, jobs ``join_job`` and places ``join_face`` in the
      ``_join_faces`` list.

    ``planes`` is a :class:`_Planes`, and ``room`` holds each slot's
    projected search dimension (:func:`_search_dims`) for the search basis
    that the job's constraint flat leaves, ``constraints[j]``, once per
    distinct (flat, plane).
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
        flats: dict = {}
        flat = np.array([flats.setdefault(c, len(flats)) for c in constraints], dtype=np.intp)
        self.room = _search_dims([_search_basis(n, c) for c in flats],
                                 np.column_stack([flat[self.slot_job], slot_plane]), planes)
        self.joins = 0

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
        self.join_job = np.repeat(np.arange(count), np.diff(self.join_start))

    @property
    def count(self) -> int:
        return len(self.slot_start) - 1

    def slice(self, a: int, b: int) -> "_Stars":
        """The stars of jobs ``a`` to ``b`` as a stack of their own, from
        views of this one's tables; its ``joins`` is where its joins start
        among this stack's."""
        new = object.__new__(_Stars)
        new.n, new.planes = self.n, self.planes
        (s0, s1), (t0, t1), (p0, p1), (j0, j1) = (
            start[[a, b]].tolist() for start in
            (self.slot_start, self.star_start, self.pair_start, self.join_start))
        new.slot_start, new.star_start, new.pair_start, new.join_start = (
            start[a:b + 1] - start[a] for start in
            (self.slot_start, self.star_start, self.pair_start, self.join_start))
        new.slot_plane, new.slot_u, new.room = \
            self.slot_plane[s0:s1], self.slot_u[s0:s1], self.room[s0:s1]
        new.ids, new.sizes = self.ids[t0:t1], self.sizes[t0:t1]
        # an id into another table moves with that table's rows
        new.slot_job, new.join_job = self.slot_job[s0:s1] - a, self.join_job[j0:j1] - a
        new.pair_slot, new.pair_star = self.pair_slot[p0:p1] - s0, self.pair_star[p0:p1] - t0
        new.join_pair = self.join_pair[j0:j1] - p0
        new.join_ids, new.join_d = self.join_ids[j0:j1], self.join_d[j0:j1]
        new.join_face = self.join_face[j0:j1]
        new.joins = self.joins + j0
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

def _join_margins(stars: _Stars, coords: np.ndarray, points: np.ndarray,
                  active: np.ndarray | None = None):
    """The semitransversality margin of each join of ``stars`` with apex
    ``points[j]`` for job j (zero where the base face is not transverse),
    and per job whether a base is degenerate (the
    :class:`DegenerateSimplex` its vertex raises); only the joins of the
    ``active`` jobs (all if None) are measured, the others read zero.

    The joins take one :func:`_semitrans_margins` call per (base size,
    foliation rank), so a join has the bits of its own
    :func:`semitrans_margin`.
    """
    job = stars.join_job
    plane = stars.slot_plane[stars.pair_slot[stars.join_pair]]
    key = stars.join_d * (stars.n + 1) + stars.planes.rank[plane]
    if active is not None:
        key[~active[job]] = -1
    margins = np.zeros(len(job))
    degenerate = np.zeros(stars.count, dtype=bool)
    for k in _distinct(key[key >= 0]).tolist():
        sel = np.flatnonzero(key == k)
        d, r = divmod(k, stars.n + 1)
        at = stars.planes.at[plane[sel]]
        got, status = _semitrans_margins(points[job[sel]], coords[stars.join_ids[sel, :d]],
                                         stars.planes.bases[r][at], stars.planes.comps[r][at])
        margins[sel] = np.where(status == 1, 0.0, got)
        degenerate[job[sel[status == 2]]] = True
    return margins, degenerate


def _star_errors(stars: _Stars, coords: np.ndarray, constraints: list,
                 active: np.ndarray) -> list:
    """The error each ``active`` job of :func:`_perturb` meets before its
    search, or None: for each foliation u in turn, the first star simplex
    of u that is degenerate (:class:`DegenerateSimplex`) or not transverse
    to it (:class:`StarNotTransverse`), then a constraint flat that is not
    transverse to it (:class:`PreconditionViolated`).

    The star simplices of dimension at least 1 take one
    :func:`_transverse_stack` call per (size, foliation rank), and the
    constraint directions one :func:`_transverse` call per (dimension,
    rank).
    """
    n, rank = stars.n, stars.planes.rank
    plane = stars.slot_plane[stars.pair_slot]
    size = stars.sizes[stars.pair_star]
    code = np.zeros(len(plane), dtype=np.int8)   # 1 degenerate, 2 not transverse
    key = size * (n + 1) + rank[plane]
    key[(size < 2) | ~active[stars.slot_job[stars.pair_slot]]] = -1
    for k in _distinct(key[key >= 0]).tolist():
        sel = np.flatnonzero(key == k)
        s, r = divmod(k, n + 1)
        transverse, flat = _transverse_stack(coords[stars.ids[stars.pair_star[sel], :s]],
                                             stars.planes.bases[r][stars.planes.at[plane[sel]]])
        code[sel] = np.where(flat, 1, np.where(transverse, 0, 2))
    dims = np.array([0 if c is None or c.direction is None else c.dim for c in constraints],
                    dtype=np.intp)[stars.slot_job]
    key = dims * (n + 1) + rank[stars.slot_plane]
    key[(dims == 0) | ~active[stars.slot_job]] = -1
    blocked = np.zeros(len(key), dtype=bool)
    for k in _distinct(key[key >= 0]).tolist():
        slots = np.flatnonzero(key == k)
        dirs = np.stack([constraints[j].direction.basis for j in stars.slot_job[slots].tolist()])
        at = stars.planes.at[stars.slot_plane[slots]]
        blocked[slots] = ~_transverse(dirs, stars.planes.bases[k % (n + 1)][at])
    bad = np.zeros(stars.count, dtype=bool)
    bad[stars.slot_job[stars.pair_slot[code > 0]]] = True
    bad[stars.slot_job[blocked]] = True
    out: list = [None] * stars.count
    for j in np.flatnonzero(bad).tolist():
        # the checks of a job in order: each slot's pairs, then its constraint
        for s in range(stars.slot_start[j], stars.slot_start[j + 1]):
            u = stars.slot_u[s]
            i = next((i for i in np.flatnonzero(stars.pair_slot == s).tolist() if code[i]), None)
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
    sel = np.flatnonzero((stars.join_d == d) & active[stars.join_job])
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
    faces, pair, sel = faces[kept], pair[kept], sel[kept]
    spans = []
    if d > 1:
        bases, ranks = _row_spaces(faces[:, 1:] - faces[:, :1])
        u = bases.swapaxes(1, 2)
        ms = n - stars.planes.rank[stars.slot_plane[stars.pair_slot[pair]]]
        for m, r in set(zip(ms.tolist(), ranks.tolist())):
            if r:
                rows = np.flatnonzero((ms == m) & (ranks == r))
                spans.append((rows, u[rows].swapaxes(1, 2)[:, :r]))
    return stars.join_job[sel], stars.pair_slot[pair], faces[:, 0], spans


def _perturb(stars: _Stars, coords: np.ndarray, points: np.ndarray, eps: list,
             seeds: list, samples: list, constraints: list, active: np.ndarray | None = None):
    """Move each ``active`` job's point (every job's if None) so all joins
    with its star become semitransverse, bit for bit what each gets alone.
    Job j starts at ``points[j]`` with budget ``eps[j]``, pinned to
    ``constraints[j]`` (an :class:`AffineFlat` or None), its star rows in
    ``coords``.

    Stage d of the induction clears the projected affine spans of the
    (d-1)-dimensional star faces inside the ball left by stage d-1, so the
    per-dimension margins are non-increasing.  The inputs are checked in
    one array pass and the stars in one :func:`_star_errors` pass; stage d
    of every job that has one is one :func:`_clear` call, and the
    certificates, the realized margin of every join, one
    :func:`_join_margins` call.  Returns ``(errors, points, achieved,
    moved, margins, per_dim)``: per job its error or None, its point, its
    achieved delta and move length, per join its certified margin, and per
    job and stage the margin left (NaN past its last stage); what a job
    that is not active gets is unspecified.
    """
    count, n = len(points), stars.n
    active = np.ones(count, dtype=bool) if active is None else active
    errors = _check_searches(points, eps, samples, seeds)
    for j, error in enumerate(_star_errors(stars, coords, constraints, active)):
        errors[j] = errors[j] or error
    bases = [_search_basis(n, c) for c in constraints]
    cap = np.zeros(count, dtype=np.intp)
    np.maximum.at(cap, stars.slot_job, n - stars.planes.rank[stars.slot_plane])
    d_max = np.minimum(cap, [n if c is None else c.dim for c in constraints])
    current = np.array(points, dtype=float)
    delta = list(eps)
    per_dim = np.full((count, int(d_max.max(initial=0))), np.nan)
    for d in range(1, per_dim.shape[1] + 1):
        live = active & np.array([e is None for e in errors], dtype=bool) & (d <= d_max)
        owner, slot, base, spans = _stage_faces(stars, coords, live, d)
        jobs = _distinct(owner)
        for j in np.flatnonzero(live).tolist():
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
    margins, degenerate = _join_margins(stars, coords, current, active)
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
