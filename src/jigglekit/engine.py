"""End-to-end jiggling pipelines.

Each pipeline follows the same shape: pick a subdivision depth, replace the
input map by its piecewise-linear interpolation on the subdivided complex,
then walk the vertices in order and nudge each image point so every join
with the already-processed part of its star is semitransverse to the plane
field, with margins certified by the perturbation search.  Success is always
re-verified by an independent transversality report before an outcome is
returned.

Every pipeline ends in the same tail (:func:`_induce_and_verify`): the
vertex induction, the pipeline's post-check, the report and the outcome.
Only what a pipeline hands the induction differs, and it is arrays built
once, never callbacks: each vertex's budget, the fields at it (one column
in Euclidean and relative mode, one per parent top in subdivision mode)
with their planes there, the flat it must stay in, and the vertices whose
simplices are left out (see :func:`_run_vertex_induction`).  The induction
builds its bookkeeping once per run (:class:`_Plan`): each vertex's
processed star and joins as index arrays, so each dependency wave only
gathers the current images and runs the stacked kernels of
:mod:`jigglekit.perturb`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    SimplicialComplex,
    SubdivisionMap,
    _barycentric,
    _carriers,
    _parents,
    _per_distinct,
    _span_distances,
    _unique_rows,
    _untiled,
    barycentric_subdivide,
    closure,
    compose_subdivisions,
    crystalline_subdivide,
    size_groups,
    star,
    top_radii,
)
from .errors import (
    AmbientMismatch,
    BudgetViolation,
    CollarTooSmall,
    DegenerateSimplex,
    EmbeddingLost,
    LevelExhausted,
    PerturbationFailed,
    PreconditionViolated,
    QueryNotInComplex,
    SkeletonViolation,
    StarNotTransverse,
    VolumeMismatch,
)
from .grassmann import Plane, affine_span
from .perturb import _join_margins, _perturb, _Planes, _Stars
from .plmaps import (
    PLMap,
    SampledMap,
    _distances,
    _embedding_failure,
    _is_native,
    _same_complex,
    complex_subdivides,
    is_piecewise_embedding,
    linearize,
)
from .transversality import (
    Distribution,
    TransversalityReport,
    _general_position_each,
    _join_error,
    transversality_report,
)

REPORT_MARGIN_TOL = 1e-9
SKELETON_TOL = 1e-12
VOLUME_REL_TOL = 1e-9
INCUMBENT_FRACTION = 0.25
SEED_STRIDE = 1000003
OSC_PROBE_CAP = 2048
DRIFT_MARGIN_FACTOR = 12.0


# ---------------------------------------------------------------------------
# configuration and outcome containers
# ---------------------------------------------------------------------------

@dataclass
class JigglingConfig:
    """Knobs shared by every pipeline.

    gamma is the C1 budget; the C0 budget is gamma * 2**-level.  level may be
    a fixed subdivision depth or "auto".  margin_floor scales the acceptance
    bar for per-vertex search results (it is a dimensionless fraction, not an
    ambient length).  epsilon_vertex optionally caps each vertex move at
    0.9 * epsilon_vertex * 2**-level, in every pipeline.
    """

    gamma: float
    level: int | str = "auto"
    seed: int = 0
    margin_floor: float = 1e-3
    epsilon_vertex: float | None = None
    samples: int = 64
    sample_depth: int = 3
    level_max: int = 8

    def __post_init__(self):
        for name in ("gamma", "margin_floor", "epsilon_vertex"):
            value = getattr(self, name)
            if (value is not None or name != "epsilon_vertex") and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise PreconditionViolated(f"{name} must be a finite real number, got {value!r}")
        self.gamma = float(self.gamma)
        if self.gamma < 0:
            raise PreconditionViolated("gamma must be nonnegative")
        if self.margin_floor <= 0:
            raise PreconditionViolated("margin_floor must be positive")
        if self.epsilon_vertex is not None and self.epsilon_vertex < 0:
            raise PreconditionViolated("epsilon_vertex must be nonnegative")
        counts = ("seed", "samples", "sample_depth", "level_max")
        for name in counts if self.level == "auto" else ("level", *counts):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise PreconditionViolated(
                    f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.level != "auto" and self.level < 0:
            raise PreconditionViolated("level must be nonnegative")
        if self.seed < 0:
            raise PreconditionViolated(f"seed must be nonnegative, got {self.seed}")
        if self.level_max < 0 or self.samples < 1 or self.sample_depth < 1:
            raise PreconditionViolated("bad search budget in config")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class JigglingOutcome:
    plmap: PLMap
    out_complex: SimplicialComplex
    subdivision: SubdivisionMap
    report: TransversalityReport
    level: int
    d_c0: float
    d_c1: float
    eta: float
    margin_target: float
    achieved: dict[int, float] = field(default_factory=dict)
    moved_count: int = 0
    config: JigglingConfig | None = None


# ---------------------------------------------------------------------------
# input normalization and linearization
# ---------------------------------------------------------------------------

def _as_input_map(f, complex_: SimplicialComplex, xi: Distribution):
    """f as a PLMap or SampledMap whose images live where xi does."""
    if isinstance(f, (PLMap, SampledMap)):
        fmap = f
    elif callable(f):
        fmap = SampledMap(complex_, f, name=getattr(f, "__name__", "callable"))
    else:
        raise PreconditionViolated("f must be a PLMap, a SampledMap, or a callable")
    if fmap.target_dim != xi.ambient_dim:
        raise AmbientMismatch(
            f"map images live in R^{fmap.target_dim}, xi in "
            f"R^{xi.ambient_dim}"
        )
    return fmap


def _vertex_images(fmap, complex_: SimplicialComplex) -> np.ndarray:
    """f at the vertices of the complex, which must all be finite."""
    images = fmap.images if _is_native(fmap, complex_) else \
        fmap.evaluate_batch(complex_.vertices)
    bad = np.flatnonzero(~np.isfinite(images).all(axis=1))
    if bad.size:
        raise PreconditionViolated(
            f"the map takes a non-finite value at vertex {bad[0]}")
    return images


def _linearize_exactly(fmap, complex_: SimplicialComplex, level: int):
    """The level-``level`` linearization plus its C0/C1 defect against f.

    Both defects are zero for a PLMap on the complex itself: ``linearize``
    interpolates it by exact vertex supports, so the maps agree as functions
    (vertex roundoff is below every tolerance in play).  Non-finite vertex
    images are rejected before any distance is taken.
    """
    flin, child, smap = linearize(fmap, complex_, level)
    _vertex_images(flin, child)
    if _is_native(fmap, complex_):
        return flin, child, smap, 0.0, 0.0
    return (flin, child, smap, *_distances(fmap, flin, c1=True))


def _jacobian_amplification(child: SimplicialComplex) -> float:
    """How much a unit vertex move can tilt a cell's PL differential.

    For a cell with edge matrix E, perturbing every vertex image by at most
    eta changes the differential by at most eta * 2*sqrt(m)/sigma_min(E);
    the maximum of that factor over top cells converts per-vertex budgets
    into C1 budgets.  One stacked SVD per cell size, of each distinct edge
    matrix once (:func:`complexes._per_distinct`).
    """
    worst = 0.0
    for k, rows, ids in size_groups(child.top_simplices):
        if k < 2:
            continue
        pts = child.vertices[ids]
        smin = _per_distinct(lambda e: np.linalg.svd(e, compute_uv=False)[:, -1],
                             pts[:, 1:] - pts[:, :1])
        flat = np.flatnonzero(smin <= 0)
        if flat.size:
            top = child.top_simplices[rows[flat[0]]]
            raise DegenerateSimplex(f"degenerate domain cell {top}")
        worst = max(worst, float((2.0 * math.sqrt(k - 1) / smin).max()))
    return worst


def _image_radii(child: SimplicialComplex,
                 images: np.ndarray) -> tuple[float, float]:
    """Smallest rmin and largest rmax over the image cells, from one
    stacked ``top_radii`` pass; raises DegenerateSimplex on a flat cell."""
    _, rmin, rmax = top_radii(child, images)
    return float(rmin.min(initial=np.inf)), float(rmax.max(initial=0.0))


def _field_planes(xi: Distribution, points: np.ndarray) -> list:
    """The plane of ``xi`` at each point, or the error it raises there,
    from one stacked evaluation; points whose bases have the same bytes
    share one :class:`Plane`."""
    bases, errors = xi._bases(points)
    out = [errors.get(i) for i in range(len(points))]
    good = [i for i in range(len(points)) if i not in errors]
    if good:
        first, ids, _ = _unique_rows(bases[good].reshape(len(good), -1))
        distinct = [Plane(bases[good[i]]) for i in first.tolist()]
        for i, j in zip(good, ids.tolist()):
            out[i] = distinct[j]
    return out


def _plane_drift(child: SimplicialComplex, planes: list, xi: Distribution) -> float:
    """Largest d_proj between the planes at the two ends of any edge, from
    ``planes``, the :func:`_field_planes` of xi at the vertices; the error
    of the first failing end, in edge order, is raised.

    Margins certified at one vertex are consumed later against neighbouring
    vertices' planes, so they must dominate this drift; zero for a constant
    field.  The projector differences are one stack, and each norm an SVD
    with the bits of :func:`d_proj`'s own.
    """
    if xi.kind == "constant":
        return 0.0
    edges = child._face_ids(1)
    failed = np.array([isinstance(p, Exception) for p in planes], dtype=bool)[edges]
    if failed.any():
        e = int(failed.any(axis=1).argmax())
        raise planes[int(edges[e, failed[e].argmax()])]
    if not len(edges):
        return 0.0
    proj = np.stack([p.projector for p in planes])
    return float(np.linalg.norm(proj[edges[:, 0]] - proj[edges[:, 1]], 2,
                                axis=(1, 2)).max(initial=0.0))


# ---------------------------------------------------------------------------
# level selection
# ---------------------------------------------------------------------------

def _edge_oscillation(fmap, complex_: SimplicialComplex, images0: np.ndarray,
                      xi: Distribution, radius: float) -> float:
    """Oscillation of xi over image-simplex-sized balls.

    Estimated along the image of the longest edge of each top simplex, with
    probe spacing at most ``radius`` (capped at OSC_PROBE_CAP probes per
    edge); the estimate is the largest d_proj between consecutive probes.
    All probes, in top order, take one pass; a map on the complex itself
    is affine on each top, so its probe images lie on the image edges.
    """
    if xi.kind == "constant":
        return 0.0
    tops = complex_.top_simplices
    ends, length = np.zeros((len(tops), 2), dtype=np.intp), np.zeros(len(tops))
    for k, rows, ids in size_groups(tops):
        if k > 1:
            edges = ids[:, np.array(np.triu_indices(k, 1)).T]  # in combinations order
            d = images0[edges[..., 0]] - images0[edges[..., 1]]
            norms = np.sqrt(np.vecdot(d, d))    # the bits of np.linalg.norm per edge
            ends[rows] = edges[np.arange(len(rows)), norms.argmax(axis=1)]
            length[rows] = norms.max(axis=1)
    ends, length = ends[length > 0.0], length[length > 0.0]
    if not len(ends):
        return 0.0
    steps = np.minimum(OSC_PROBE_CAP, np.maximum(1, np.ceil(length / radius))).astype(int)
    params = {s: np.linspace(0.0, 1.0, s + 1) for s in set(steps.tolist())}
    ts = np.concatenate([params[s] for s in steps.tolist()])[:, None]
    owner = np.repeat(np.arange(len(ends)), steps + 1)
    i, j = ends[owner].T
    native = _is_native(fmap, complex_)
    at = images0 if native else complex_.vertices
    pts = at[i] + ts * (at[j] - at[i])
    bases = xi.bases_at(pts if native else fmap.evaluate_batch(pts))
    proj = bases.swapaxes(1, 2) @ bases
    same = np.flatnonzero(owner[1:] == owner[:-1])
    return float(np.linalg.norm(proj[same + 1] - proj[same], 2, axis=(1, 2)).max())


def auto_level(f, complex_: SimplicialComplex, xi: Distribution, gamma: float,
               margin_floor: float = 1e-3, level_max: int = 8) -> int:
    """Smallest subdivision depth at which jiggling has room to work.

    Two conditions must hold: the C1 linearization defect fits in half the
    budget, and the oscillation of xi over image-simplex-sized balls stays
    below margin_floor / (4 * rmax), where rmax is the longest edge of the
    level-zero image cells (the rmax of ``_image_radii``; cells shrink with
    the level while the bound stays put, so the field looks locally constant
    at cell scale eventually).
    """
    fmap = _as_input_map(f, complex_, xi)
    exact = _is_native(fmap, complex_)
    images0 = _vertex_images(fmap, complex_)
    _, rmax0 = _image_radii(complex_, images0)
    if rmax0 == 0.0:
        return 0
    threshold = margin_floor / (4.0 * rmax0)
    last = (np.inf, np.inf)
    for level in range(level_max + 1):
        if exact:
            e1 = 0.0
        else:
            _, _, _, _, e1 = _linearize_exactly(fmap, complex_, level)
        osc = _edge_oscillation(fmap, complex_, images0, xi, rmax0 * 2.0 ** -level)
        last = (e1, osc)
        if e1 <= gamma / 2.0 and osc < threshold:
            return level
    raise LevelExhausted(
        f"no level <= {level_max} works: linearization defect {last[0]:.3g} "
        f"(budget {gamma / 2.0:.3g}), oscillation {last[1]:.3g} "
        f"(threshold {threshold:.3g})"
    )


# ---------------------------------------------------------------------------
# the vertex induction
# ---------------------------------------------------------------------------

def _waves(child: SimplicialComplex, frozen: np.ndarray, order) -> list[np.ndarray]:
    """The dependency waves of the vertex induction, each an array of
    vertex ids in ``order``.

    A vertex's wave is one more than the largest wave of its non-frozen
    neighbours that come earlier in ``order``, and 0 if it has none; frozen
    vertices are in no wave.  So no edge joins two vertices of one wave,
    and a vertex sees its earlier neighbours settled and its later ones
    untouched, as the loop in ``order`` does.
    """
    live = np.array([v for v in order if not frozen[v]], dtype=np.intp)
    rank = np.full(child.num_vertices, -1, dtype=np.intp)
    rank[live] = np.arange(len(live))
    edges = rank[child._face_ids(1)]
    edges = np.sort(edges[(edges >= 0).all(axis=1)], axis=1)
    wave = np.zeros(len(live), dtype=np.intp)
    while True:
        reach = wave.copy()
        np.maximum.at(reach, edges[:, 1], wave[edges[:, 0]] + 1)
        if (reach == wave).all():
            break
        wave = reach
    by_wave = np.argsort(wave, kind="stable")
    cuts = np.cumsum(np.bincount(wave))[:-1]
    return [live[ranks] for ranks in np.split(by_wave, cuts)] if len(live) else []


_NONE = np.zeros(0, dtype=np.intp)


class _Plan:
    """The bookkeeping of one vertex induction, built once before its first
    wave: the processed star of every live vertex as one
    :class:`perturb._Stars` over the image table, in ``live`` order (that
    of the waves, so each wave is a run of it).

    A simplex of at least two vertices is in the processed star of the
    vertex with the largest ``key`` (its place in the loop's order; -1 when
    it is frozen, the vertex count when it is never processed), if that key
    is a place and none of its vertices is ``excluded``; a star keeps
    ``all_simplices`` order.  A vertex's foliations are the ``planes`` of
    its row of ``foliations``, in column order.  A star simplex is checked
    against the columns that all of its vertices' rows share, or against
    all of the vertex's own if they share none.  A vertex with an error
    among its planes goes to ``fail`` with the first one and gets an empty
    star.

    Every join gets the id of its simplex (``simplex``), numbered in the
    order of their :func:`_unique_rows`, so per dimension in sorted order;
    ``keys`` lists the simplices by id, and ``first`` orders them by their
    first join in the loop's order.
    """

    def __init__(self, child, live, key, *, foliations, planes, constraints, excluded,
                 fail):
        count, width = len(live), max(child.dim, 0)
        job = np.empty(count, dtype=np.intp)    # the job of each place
        job[key[live]] = np.arange(count)
        owner, others, sizes = [_NONE], [np.zeros((0, width), dtype=np.intp)], [_NONE]
        shared = [np.zeros((0, foliations.shape[1]), dtype=bool)]
        for d in range(1, child.dim + 1):
            table = child._face_ids(d)
            places = key[table]
            last = places.argmax(axis=1)
            place = places[np.arange(len(table)), last]
            rows = np.flatnonzero((place >= 0) & (place < child.num_vertices)
                                  & ~excluded[table].any(axis=1))
            ids = np.full((len(rows), width), -1, dtype=np.intp)
            ids[:, :d] = table[rows][np.arange(d + 1) != last[rows, None]].reshape(-1, d)
            owner.append(job[place[rows]])
            others.append(ids)
            sizes.append(np.full(len(rows), d, dtype=np.intp))
            shared.append(foliations[table[rows]].all(axis=1))
        by_owner = np.argsort(np.concatenate(owner), kind="stable")
        owner, others, sizes, shared = (np.concatenate(table)[by_owner]
                                        for table in (owner, others, sizes, shared))

        # the slots: each live vertex's planes, less those of a vertex with an error
        slot_job, column = np.nonzero(foliations[live])
        values = planes[live[slot_job], column]
        broken = np.zeros(count, dtype=bool)
        for i in np.flatnonzero([isinstance(v, Exception) for v in values]).tolist():
            if not broken[slot_job[i]]:
                broken[slot_job[i]] = True
                fail(int(live[slot_job[i]]), values[i])
        ok = ~broken[slot_job]
        slot_job = slot_job[ok]
        distinct: dict = {}
        slot_plane = [distinct.setdefault(v, len(distinct)) for v in values[ok].tolist()]
        slot_start = np.searchsorted(slot_job, np.arange(count + 1))
        kept = ~broken[owner]
        owner, use = owner[kept], shared[kept]
        # the (vertex, foliation u, star simplex) pairs, in that order
        alone = ~use.any(axis=1)
        use[alone] = foliations[live[owner[alone]]]
        entry, column = np.nonzero(use)
        job = owner[entry]
        u = (np.cumsum(foliations, axis=1) - 1)[live[job], column]
        order = np.lexsort((entry, u, job))
        self.stars = _Stars(child.ambient_dim, _Planes(list(distinct)),
                            np.array(slot_plane, dtype=np.intp),
                            np.arange(len(slot_job)) - slot_start[slot_job], slot_start,
                            others[kept], sizes[kept],
                            np.searchsorted(owner, np.arange(count + 1)),
                            (slot_start[job] + u)[order], entry[order],
                            [constraints[v] for v in live.tolist()])

        stars = self.stars
        # -1 pads the ids of a join; sorted, it leads the row
        rows = np.sort(np.column_stack([live[stars.join_job], stars.join_ids]), axis=1)
        loop = np.argsort(key[live][stars.join_job], kind="stable")
        self.first, simplex, _ = _unique_rows(np.column_stack([stars.join_d, rows])[loop])
        self.simplex = np.empty_like(simplex)
        self.simplex[loop] = simplex
        chosen, size = rows[loop[self.first]], stars.join_d[loop[self.first]]
        self.keys = [key for d in np.unique(size).tolist()
                     for key in map(tuple, chosen[size == d, -d - 1:].tolist())]

    def certified(self, margins: np.ndarray) -> dict[tuple[int, ...], float]:
        """The smallest of ``margins`` (one per join) per join simplex, keyed
        in order of each simplex's first join."""
        least = np.full(len(self.keys), np.inf)
        np.minimum.at(least, self.simplex, margins)
        order = np.argsort(self.first)
        return dict(zip([self.keys[i] for i in order.tolist()], least[order].tolist()))


def _run_vertex_induction(child, images, *, frozen, order, budgets, foliations, planes,
                          constraints, excluded, margin_target, cfg):
    """Perturb the image point of every non-frozen vertex, in ``order``'s
    sense, as needed.

    Every join of a vertex with the processed part of its star (the frozen
    vertices and those earlier in ``order``) is checked at the incumbent
    position first; a vertex moves only when some margin falls below a
    quarter of the run's margin target.  Returns the per-vertex achieved
    deltas, the certified per-simplex margins, and the move count.
    Arguments after ``images`` are keyword-only so that a tracer can read
    ``frozen`` by name.

    Each pipeline describes its vertices with arrays, built once:

    - ``budgets`` (V,): how far each vertex may move;
    - ``foliations`` (V, T): the fields at each vertex (T is 1 for one
      field, the parent tops in subdivision mode), and ``planes`` (V, T),
      read where ``foliations`` is set: the plane of that field at the
      vertex, or the error its evaluation raised;
    - ``constraints`` (V,): the :class:`AffineFlat` a vertex must stay in,
      or None;
    - ``excluded`` (V,): a simplex touching one of these is in no star.

    The stars, joins and slots of every vertex are one :class:`_Plan`,
    built before the first wave with the vertices in the order of the
    dependency waves of :func:`_waves`.  A wave takes its run of the plan
    (:meth:`_Stars.slice`, no gather) and the images: its incumbent joins
    are one :func:`_join_margins` pass and its moves one :func:`_perturb`
    pass on the same stack, for the vertices that move, so each vertex sees
    exactly the star the loop in ``order`` gives it, and every result is
    the loop's bit for bit.  Each join's margin goes to its slot of one
    array, and the certified margins are its per-simplex minimum.  On
    failure the error is that of the first failing vertex in ``order``,
    which may sit in a later wave than another failing vertex; a wave of
    later vertices alone is skipped, and their images are put back.
    """
    live = np.array([v for v in order if not frozen[v]], dtype=np.intp)
    rank = np.full(child.num_vertices, child.num_vertices, dtype=np.intp)
    rank[live] = np.arange(len(live))
    threshold = max(INCUMBENT_FRACTION * margin_target, 1e-12)
    moved_from: dict[int, np.ndarray] = {}
    limit, error = len(live), None

    def fail(vid: int, exc: Exception) -> None:
        nonlocal limit, error
        if rank[vid] < limit:
            limit, error = int(rank[vid]), exc

    waves = _waves(child, frozen, order)
    jobs = np.concatenate(waves) if waves else live
    plan = _Plan(child, jobs, np.where(frozen, -1, rank), foliations=foliations,
                 planes=planes, constraints=constraints, excluded=excluded, fail=fail)
    eps = budgets[jobs].tolist()
    seeds = [cfg.seed * SEED_STRIDE + vid for vid in jobs.tolist()]
    flats = [constraints[vid] for vid in jobs.tolist()]
    margins = np.zeros(len(plan.simplex))
    achieved = np.full(len(live), np.nan)
    end = 0
    for members in waves:
        start, end = end, end + len(members)
        if (rank[members] > limit).all():
            continue
        wave = plan.stars.slice(start, end)
        got, degenerate = _join_margins(wave, images, images[members])
        margins[wave.joins:wave.joins + len(got)] = got
        low = np.full(len(members), np.inf)
        np.minimum.at(low, wave.join_job, got)
        movers = np.zeros(len(members), dtype=bool)
        for i, (vid, flat, worst) in enumerate(zip(members.tolist(), degenerate.tolist(),
                                                   low.tolist())):
            if not (flat or worst < threshold):
                continue
            if flat:
                fail(vid, _join_error(2))
            elif eps[start + i] <= 0:
                fail(vid, BudgetViolation(
                    f"vertex {vid} needs a move but the per-vertex budget is "
                    f"exhausted (eta = {eps[start + i]:.3g})"
                ))
            else:
                movers[i] = True
        if not movers.any():
            continue
        errors, points, deltas, moved, certificate, _ = _perturb(
            wave, images, images[members], eps[start:end], seeds[start:end],
            [cfg.samples] * len(members), flats[start:end], movers)
        for i in np.flatnonzero(movers).tolist():
            vid, res = int(members[i]), errors[i]
            if isinstance(res, StarNotTransverse):
                failure = PerturbationFailed(
                    f"vertex {vid}: a processed star simplex lost transversality "
                    "to the local plane; the field varies too fast for the "
                    "achieved margins (raise the level)"
                )
                failure.__cause__ = res
                fail(vid, failure)
            elif res is not None:
                fail(vid, res)
            elif deltas[i] < margin_target:
                fail(vid, PerturbationFailed(
                    f"vertex {vid}: best margin {deltas[i]:.3g} below "
                    f"target {margin_target:.3g}"
                ))
            else:
                if moved[i] > 0:
                    moved_from[vid] = images[vid].copy()
                    images[vid] = points[i]
                achieved[rank[vid]] = deltas[i]
                lo, hi = wave.join_start[i:i + 2].tolist()
                margins[wave.joins + lo:wave.joins + hi] = certificate[lo:hi]
    if error is not None:
        for vid, point in moved_from.items():
            if rank[vid] > limit:
                images[vid] = point
        raise error
    settled = np.flatnonzero(~np.isnan(achieved))
    return (dict(zip(live[settled].tolist(), achieved[settled].tolist())),
            plan.certified(margins), len(moved_from))


def _induce_and_verify(child: SimplicialComplex, images: np.ndarray, cfg: JigglingConfig,
                       *, check, fields, ref, subdivision, level, eta, margin_target,
                       **induction) -> JigglingOutcome:
    """The tail every pipeline shares: the vertex induction on ``images``
    (``induction`` holds its per-vertex arrays), the pipeline's post-check
    ``check(images)``, the transversality report on ``fields`` (what
    :func:`transversality_report` examines), and the outcome with the C0/C1
    distances to ``ref``.

    Raises PerturbationFailed when the report does not pass.
    """
    achieved, certified, moved = _run_vertex_induction(
        child, images, margin_target=margin_target, cfg=cfg, **induction)
    check(images)
    g = PLMap(child, images)
    report = transversality_report(child, images, fields,
                                   sample_depth=cfg.sample_depth,
                                   margin_tol=REPORT_MARGIN_TOL,
                                   certificates=certified)
    if not report.passed:
        raise PerturbationFailed(
            "post-run verification rejected the jiggled map "
            f"(min eps margin {report.min_eps_margin:.3g})"
        )
    d_c0, d_c1 = _distances(ref, g, c1=True)
    return JigglingOutcome(
        plmap=g, out_complex=child, subdivision=subdivision, report=report,
        level=level, d_c0=d_c0, d_c1=d_c1, eta=float(eta),
        margin_target=float(margin_target), achieved=achieved,
        moved_count=moved, config=cfg,
    )


def _with_neighbours(child: SimplicialComplex, mask: np.ndarray) -> np.ndarray:
    """``mask`` and every vertex that an edge joins to one of it."""
    edges = child._face_ids(1)
    out = mask.copy()
    out[edges[mask[edges[:, 1]], 0]] = True
    out[edges[mask[edges[:, 0]], 1]] = True
    return out


# ---------------------------------------------------------------------------
# Euclidean and relative pipelines
# ---------------------------------------------------------------------------

def _carried_by(smap, faces: set) -> np.ndarray:
    """Per child vertex: is its parent carrier face one of ``faces``?"""
    if not faces:
        return np.zeros(len(smap.ids), dtype=bool)
    return np.array([tuple(g for g in row if g >= 0) in faces
                     for row in smap.ids.tolist()], dtype=bool)


def _jiggle(f, complex_: SimplicialComplex, xi: Distribution,
            cfg: JigglingConfig, a, b, v_radius: float) -> JigglingOutcome:
    """The pipeline behind :func:`jiggle_relative`; with A and B empty it is
    :func:`jiggle_euclidean`."""
    fmap = _as_input_map(f, complex_, xi)
    native = _is_native(fmap, complex_)
    a_faces = set(closure(complex_, a))
    b_faces = set(closure(complex_, b))

    if a_faces:
        images_k = _vertex_images(fmap, complex_)
        sims = [s for s in star(complex_, list(a_faces)) if len(s) >= 2]
        ok, _ = _general_position_each([images_k[list(s)] for s in sims], xi,
                                       cfg.sample_depth, stop=True)
        if not ok.all():
            raise PreconditionViolated(
                f"star simplex {sims[np.argmin(ok)]} of A is not stratified transverse"
            )

    if cfg.level == "auto":
        level = auto_level(fmap, complex_, xi, cfg.gamma, cfg.margin_floor,
                           cfg.level_max)
    else:
        level = cfg.level

    while True:
        flin, child, smap, e0, e1 = _linearize_exactly(fmap, complex_, level)
        from_a = _carried_by(smap, a_faces)
        from_b = _carried_by(smap, b_faces)
        if not from_b.any():
            break
        # each vertex's distance to the nearest vertex of B, one pass per
        # vertex of B
        near = np.full(child.num_vertices, np.inf)
        for point in child.vertices[from_b]:
            near = np.minimum(near, np.linalg.norm(child.vertices - point, axis=1))
        # the vertices of the simplices touching B
        if not (near[_with_neighbours(child, from_b)] > v_radius).any():
            break
        if cfg.level == "auto" and level < cfg.level_max:
            level += 1
            continue
        raise CollarTooSmall(
            f"str(B) at level {level} leaves the radius-{v_radius} "
            "neighborhood of |B|"
        )

    if not is_piecewise_embedding(flin):
        raise PreconditionViolated(
            "the linearized input is not a piecewise embedding: "
            f"{_embedding_failure(flin)}"
        )

    amp = _jacobian_amplification(child)
    # the pre-check's own top_radii pass
    tops, rmins, rmaxs = flin._radii
    rmin_img, rmax_img = float(rmins.min(initial=np.inf)), float(rmaxs.max(initial=0.0))
    terms = [(cfg.gamma - e1) / (1.0 + amp),
             cfg.gamma * 2.0 ** -level - e0,
             rmin_img / 4.0]
    if cfg.epsilon_vertex is not None:
        terms.append(cfg.epsilon_vertex * 2.0 ** -level)
    eta = 0.9 * min(terms)

    budgets = np.full(child.num_vertices, eta)
    if from_a.any():
        cap_a = np.inf
        rmin_of = dict(zip(tops, rmins.tolist()))
        tops_a = [top for top in child.top_simplices if any(from_a[v] for v in top)]
        ok, margins = _general_position_each([flin.images[list(top)] for top in tops_a],
                                             xi, cfg.sample_depth)
        for top, good, margin in zip(tops_a, ok.tolist(), margins.tolist()):
            if good and np.isfinite(margin):
                cap_a = min(cap_a, 0.5 * margin * rmin_of[top])
        if np.isfinite(cap_a):
            budgets[_with_neighbours(child, from_a)] = min(eta, cap_a)

    images = np.array(flin.images)
    planes = _field_planes(xi, images)
    drift = _plane_drift(child, planes, xi)
    margin_target = max(
        cfg.margin_floor * 0.9 * cfg.gamma / (1.0 + amp),
        DRIFT_MARGIN_FACTOR * drift * rmax_img,
    )

    def embedded(images):
        jiggled = PLMap(child, images)
        if not is_piecewise_embedding(jiggled):
            raise EmbeddingLost(
                f"the jiggled map lost injectivity: {_embedding_failure(jiggled)}")

    count = child.num_vertices
    # the certified region: tops touching A or leaving the collar of B
    fields = {top: xi for top in child.top_simplices
              if any(from_a[v] or near[v] > v_radius for v in top)} \
        if from_b.any() else xi
    out = _induce_and_verify(
        child, images, cfg, check=embedded, fields=fields, ref=flin if native else fmap,
        subdivision=smap, level=level, eta=eta, margin_target=margin_target,
        frozen=from_a | from_b, order=range(count), budgets=budgets,
        foliations=np.ones((count, 1), dtype=bool),
        planes=np.fromiter(planes, dtype=object, count=count)[:, None],
        constraints=[None] * count, excluded=from_b)
    # a run that examines no top still reports whether its field varies
    out.report.sampled = xi.kind != "constant"
    within = out.d_c1 < cfg.gamma and out.d_c0 < cfg.gamma * 2.0 ** -level
    if not within and not (out.moved_count == 0 and out.d_c0 == 0.0 and out.d_c1 == 0.0):
        raise BudgetViolation(
            f"realized distances d0={out.d_c0:.3g}, d1={out.d_c1:.3g} exceed the budget "
            f"gamma={cfg.gamma}, level={level}"
        )
    return out


def jiggle_euclidean(f, complex_: SimplicialComplex, xi: Distribution,
                     config: JigglingConfig) -> JigglingOutcome:
    """Jiggle a map of a complex into R^n into general position w.r.t. xi.

    The map is linearized on the level-``level`` crystalline subdivision and
    the vertices are then perturbed in global id order; each vertex's plane
    is xi evaluated at its unperturbed image.  This is the relative pipeline
    with A and B empty.  The outcome carries the jiggled PLMap, the
    verification report, and the realized C0/C1 budgets.
    """
    return _jiggle(f, complex_, xi, config, a=(), b=(), v_radius=0.0)


def jiggle_relative(f, complex_: SimplicialComplex, xi: Distribution,
                    gamma: float, a, b=(), v_radius: float = 0.0,
                    config: JigglingConfig | None = None) -> JigglingOutcome:
    """Jiggle while fixing f on the subcomplexes A and B pointwise.

    Vertices carried by A or B keep their exact linearized images; simplices
    touching B are left unjiggled and excluded from the certified region,
    which covers everything outside the radius-``v_radius`` neighborhood of
    |B| plus the star of A.  Budgets near A are additionally capped so the
    measured transversality margins of the fixed star survive.  ``gamma``
    overrides ``config.gamma``; without a config every other knob keeps its
    default.
    """
    if isinstance(v_radius, bool) or not isinstance(v_radius, numbers.Real) \
            or not math.isfinite(v_radius) or v_radius < 0:
        raise PreconditionViolated(
            f"v_radius must be a finite nonnegative real number, got {v_radius!r}")
    cfg = dataclasses.replace(config, gamma=float(gamma)) if config else \
        JigglingConfig(gamma=float(gamma))
    return _jiggle(f, complex_, xi, cfg, a, b, v_radius)


def jiggle_tower(f, complex_: SimplicialComplex, xi: Distribution,
                 config: JigglingConfig, levels) -> list[JigglingOutcome]:
    """One jiggling outcome per requested subdivision depth.  Every level is
    checked, as a config's ``level`` is, before the first runs."""
    try:
        levels = list(levels)
    except TypeError:
        raise PreconditionViolated(
            f"levels must be an iterable of levels, got {levels!r}") from None
    configs = [dataclasses.replace(config, level=level) for level in levels]
    return [jiggle_euclidean(f, complex_, xi, cfg) for cfg in configs]


# ---------------------------------------------------------------------------
# subdivision pipeline
# ---------------------------------------------------------------------------

def _resolve_per_top(complex_: SimplicialComplex, distributions):
    if isinstance(distributions, Distribution):
        return {top: distributions for top in complex_.top_simplices}
    resolved = {}
    for key, dist in dict(distributions).items():
        t = tuple(sorted(int(v) for v in key))
        if t not in complex_.top_simplices:
            raise QueryNotInComplex(f"{t} is not a top simplex")
        resolved[t] = dist
    missing = set(complex_.top_simplices) - set(resolved)
    if missing:
        raise PreconditionViolated(
            f"no distribution for top simplices {sorted(missing)}"
        )
    return resolved


def jiggle_subdivision(complex_: SimplicialComplex,
                       refinement: SimplicialComplex,
                       distributions,
                       config: JigglingConfig) -> JigglingOutcome:
    """Re-triangulate a subdivision into general position, skeleton intact.

    ``refinement`` must subdivide ``complex_``; ``distributions`` is either a
    single plane field or a dict keyed by top simplices of ``complex_``.  The
    refinement is barycentrically subdivided once, then crystalline-subdivided
    ``level`` times, and every vertex is perturbed inside its minimal carrier
    face of ``complex_`` (vertices carried by original vertices stay put).
    The returned map T sends |complex_| to itself; each cell is in general
    position against the field of its parent top, and a face of cells in
    several parent tops against each of their fields.

    The carriers are one (vertex, parent vertex) mask, and everything else
    per vertex or cell comes from it by array passes: the parent tops that
    hold a vertex's carrier are its foliation columns; a vertex may move
    0.9 times the least of its distance to the walls of its carrier, a
    quarter of the smallest rmin of its cells and, if set,
    ``epsilon_vertex * 2**-level``; a cell's parent is the first top that
    holds all of its vertices' carriers.  After the induction every vertex
    must still lie in its carrier face (one stacked barycentric pass per
    carrier size, to ``SKELETON_TOL``), and the images of each parent top's
    cells must tile it: their unsigned volumes sum to its volume, to
    ``VOLUME_REL_TOL``, which a folded cell overshoots.
    """
    cfg = config
    per_top = _resolve_per_top(complex_, distributions)
    if not _same_complex(complex_, refinement) and \
            not complex_subdivides(complex_, refinement):
        raise VolumeMismatch("refinement does not subdivide the complex")

    tops = list(per_top)
    ok, _ = _general_position_each([complex_.coords(top) for top in tops],
                                   [per_top[top] for top in tops], cfg.sample_depth,
                                   stop=True)
    if not ok.all():
        raise PreconditionViolated(
            f"top simplex {tops[np.argmin(ok)]} is not stratified transverse to its "
            "plane field"
        )

    located = _carriers(complex_, refinement.vertices, SKELETON_TOL)
    level = 1 if cfg.level == "auto" else cfg.level
    mid, bmap = barycentric_subdivide(refinement)
    out, cmap = crystalline_subdivide(mid, level)
    sub = compose_subdivisions(bmap, cmap)
    count = out.num_vertices

    # a vertex's carrier spans the carriers of the refinement vertices it
    # is a combination of; -1 pads a row of ids and picks the empty row
    carrier = np.vstack([located, np.zeros((1, complex_.num_vertices), dtype=bool)])[
        sub.ids].any(axis=1)
    size = carrier.sum(axis=1)
    frozen = size == 1
    parents = complex_.top_simplices
    cells = out.top_simplices
    foliations, cell_parent = _parents(complex_, carrier, cells)
    orphans = np.flatnonzero(cell_parent < 0)
    if orphans.size:
        raise VolumeMismatch(f"cell {cells[orphans[0]]} has no parent top simplex")

    images = np.array(out.vertices)
    # each field's planes at the vertices whose carrier lies in one of its tops
    planes = np.empty(foliations.shape, dtype=object)
    for xi in dict.fromkeys(per_top.values()):
        columns = [t for t, top in enumerate(parents) if per_top[top] is xi]
        vids = np.flatnonzero(foliations[:, columns].any(axis=1))
        planes[vids[:, None], columns] = np.fromiter(
            _field_planes(xi, images[vids]), dtype=object, count=len(vids))[:, None]

    # per distinct carrier face of two or more vertices: the flat its
    # vertices stay in (none for a full-dimensional face), and each vertex's
    # distance to the nearest facet wall, one stack per facet
    first, group, _ = _unique_rows(carrier)
    distinct = carrier[first]
    flats, wall = [None] * len(distinct), np.full(count, np.inf)
    for g, row in enumerate(distinct):
        cpts = complex_.vertices[row]
        if len(cpts) < 2:
            continue
        if len(cpts) - 1 < complex_.ambient_dim:
            flats[g] = affine_span(cpts)
        vids = np.flatnonzero(group == g)
        for drop in range(len(cpts)):
            wall[vids] = np.minimum(wall[vids], _span_distances(
                images[vids], np.delete(cpts, drop, axis=0)))
    room = np.full(count, np.inf)
    spanned, rmins, _ = top_radii(out, out.vertices)
    for k, rows, ids in size_groups(spanned):
        np.minimum.at(room, ids.ravel(), np.repeat(rmins[rows], k))
    terms = np.minimum(wall, 0.25 * room)
    if cfg.epsilon_vertex is not None:
        terms = np.minimum(terms, cfg.epsilon_vertex * 2.0 ** -level)
    budgets = 0.9 * terms
    eta = float(budgets[~frozen].min()) if (~frozen).any() else 0.0

    def on_carriers_and_tiled(images):
        defect, low = np.zeros(count), np.zeros(count)
        for k in np.unique(size).tolist():
            vids = np.flatnonzero(size == k)
            corners = np.nonzero(carrier[vids])[1].reshape(-1, k)
            b, defect[vids] = _barycentric(complex_.vertices[corners], images[vids])
            low[vids] = b.min(axis=1)
        off = np.flatnonzero((defect > SKELETON_TOL) | (low < -SKELETON_TOL))
        if off.size:
            vid = off[0]
            raise SkeletonViolation(
                f"vertex {vid} left its carrier face "
                f"{tuple(np.flatnonzero(carrier[vid]).tolist())} (defect {defect[vid]:.3g})")
        untiled = _untiled(complex_, cells, cell_parent, images, VOLUME_REL_TOL)
        if untiled is not None:
            t, total, target = untiled
            raise VolumeMismatch(
                f"images of {parents[t]} tile {total:.12g}, expected {target:.12g}")

    return _induce_and_verify(
        out, images, cfg, check=on_carriers_and_tiled,
        fields={cell: per_top[parents[t]] for cell, t in zip(cells, cell_parent.tolist())},
        ref=PLMap.identity(out), subdivision=sub, level=level, eta=eta,
        margin_target=cfg.margin_floor * eta, frozen=frozen,
        order=np.argsort(size, kind="stable"), budgets=budgets, foliations=foliations,
        planes=planes, constraints=np.fromiter(flats, dtype=object,
                                               count=len(flats))[group],
        excluded=np.zeros(count, dtype=bool))
