"""End-to-end jiggling pipelines.

Each pipeline follows the same shape: pick a subdivision depth, replace the
input map by its piecewise-linear interpolation on the subdivided complex,
then walk the vertices in order and nudge each image point so every join
with the already-processed part of its star is semitransverse to the plane
field, with margins certified by the perturbation search.  Success is always
re-verified by an independent transversality report before an outcome is
returned.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    SimplicialComplex,
    SubdivisionMap,
    _span_distances,
    barycentric_coordinates,
    barycentric_subdivide,
    closure,
    compose_subdivisions,
    crystalline_subdivide,
    simplex_volume,
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
from .grassmann import affine_span, d_proj
from .perturb import PerturbationRequest, _join_margins, _perturb_vertices
from .plmaps import (
    PLMap,
    SampledMap,
    _embedding_failure,
    _is_native,
    _same_complex,
    complex_subdivides,
    distance,
    is_piecewise_embedding,
    linearize,
)
from .transversality import (
    Distribution,
    TransversalityReport,
    _general_position_each,
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
    epsilon_vertex * 2**-level.
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
        self.gamma = float(self.gamma)
        for name in ("gamma", "margin_floor", "epsilon_vertex"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise PreconditionViolated(f"{name} must be finite, got {value}")
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
        if self.level_max < 0 or self.samples < 1 or self.sample_depth < 1:
            raise PreconditionViolated("bad search budget in config")

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "level": self.level,
            "seed": self.seed,
            "margin_floor": self.margin_floor,
            "epsilon_vertex": self.epsilon_vertex,
            "samples": self.samples,
            "sample_depth": self.sample_depth,
            "level_max": self.level_max,
        }


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
    return (flin, child, smap, distance(fmap, flin, order=0),
            distance(fmap, flin, order=1))


def _jacobian_amplification(child: SimplicialComplex) -> float:
    """How much a unit vertex move can tilt a cell's PL differential.

    For a cell with edge matrix E, perturbing every vertex image by at most
    eta changes the differential by at most eta * 2*sqrt(m)/sigma_min(E);
    the maximum of that factor over top cells converts per-vertex budgets
    into C1 budgets.  One stacked SVD per cell size.
    """
    worst = 0.0
    for k, rows, ids in size_groups(child.top_simplices):
        if k < 2:
            continue
        pts = child.vertices[ids]
        smin = np.linalg.svd(pts[:, 1:] - pts[:, :1], compute_uv=False)[:, -1]
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


def _plane_drift(child: SimplicialComplex, planes_for, xi: Distribution) -> float:
    """Largest d_proj between the planes at the two ends of any edge.

    Margins certified at one vertex are consumed later against neighbouring
    vertices' planes, so they must dominate this drift; zero for a constant
    field.
    """
    if xi.kind == "constant":
        return 0.0
    worst = 0.0
    for u, w in child.simplices_of_dim(1):
        worst = max(worst, d_proj(planes_for(u)[0], planes_for(w)[0]))
    return worst


# ---------------------------------------------------------------------------
# level selection
# ---------------------------------------------------------------------------

def _edge_oscillation(fmap, complex_: SimplicialComplex, images0: np.ndarray,
                      xi: Distribution, radius: float) -> float:
    """Oscillation of xi over image-simplex-sized balls.

    Estimated along the image of the longest edge of each top simplex, with
    probe spacing at most ``radius`` (capped at OSC_PROBE_CAP probes per
    edge); the estimate is the largest d_proj between consecutive probes.
    """
    if xi.kind == "constant":
        return 0.0
    worst = 0.0
    for top in complex_.top_simplices:
        if len(top) < 2:
            continue
        dom = complex_.coords(top)
        img = images0[list(top)]
        i, j = max(itertools.combinations(range(len(top)), 2),
                   key=lambda ij: np.linalg.norm(img[ij[0]] - img[ij[1]]))
        length = float(np.linalg.norm(img[i] - img[j]))
        if length == 0.0:
            continue
        steps = min(OSC_PROBE_CAP, max(1, math.ceil(length / radius)))
        ts = np.linspace(0.0, 1.0, steps + 1)
        pts = dom[i] + np.outer(ts, dom[j] - dom[i])
        ipts = fmap.evaluate_batch(pts, hint=tuple(top))
        planes = [xi.plane_at(q) for q in ipts]
        for a, b in zip(planes, planes[1:]):
            worst = max(worst, d_proj(a, b))
    return worst


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

@functools.cache
def _join_getter(at: int, combo: tuple[int, ...]):
    """Picks, from a sorted simplex, the join of its vertex at position
    ``at`` with the face ``combo`` of its other vertices."""
    return operator.itemgetter(*sorted([at] + [j + (j >= at) for j in combo]))


def _join_keys(vid: int, entries, joins) -> list[tuple[int, ...]]:
    """The join simplex of each ``(u, si, combo)`` of ``joins``."""
    at = [s.index(vid) for s, _ in entries]
    return [_join_getter(at[si], combo)(entries[si][0]) for _, si, combo in joins]


def _by_join(keys, margins) -> dict[tuple[int, ...], float]:
    """The smallest margin per join simplex, in order of first appearance."""
    out: dict[tuple[int, ...], float] = {}
    for key, m in zip(keys, margins):
        out[key] = min(m, out.get(key, np.inf))
    return out


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


def _processed_stars(child: SimplicialComplex, key: np.ndarray) -> dict[int, list]:
    """The simplices of at least two vertices whose other vertices are all
    processed before a vertex, per vertex, in ``all_simplices`` order.

    ``key`` is a vertex's place in the induction order, -1 when it is
    frozen and the vertex count when it is never processed.  The other
    vertices of a simplex are all processed before exactly one of its
    vertices: the one with the largest key, if that key is a place.
    """
    owned: dict[int, list] = {}
    for d in range(1, child.dim + 1):
        sims, ids = child.simplices_of_dim(d), child._face_ids(d)
        keys = key[ids]
        last = keys.argmax(axis=1)
        owners = ids[np.arange(len(sims)), last]
        top = keys[np.arange(len(sims)), last]
        for s, vid, place in zip(sims, owners.tolist(), top.tolist()):
            if 0 <= place < child.num_vertices:
                owned.setdefault(vid, []).append(s)
    return owned


def _run_vertex_induction(child, images, *, frozen, order, planes_for,
                          fol_indices_for, epsilon_for, margin_target,
                          constraint_for, exclude_simplex, cfg):
    """Perturb the image point of every non-frozen vertex, in ``order``'s
    sense, as needed.

    Every join of a vertex with the processed part of its star (the frozen
    vertices and those earlier in ``order``) is checked at the incumbent
    position first; a vertex moves only when some margin falls below a
    quarter of the run's margin target.  Returns the per-vertex achieved
    deltas, the certified per-simplex margins, and the move count.
    Arguments after ``images`` are keyword-only so that a tracer can read
    ``frozen`` by name.

    The vertices run in the dependency waves of :func:`_waves`.  A wave's
    incumbent joins are one :func:`_join_margins` pass and its moves one
    :func:`_perturb_vertices` pass, so each vertex sees exactly the star
    the loop in ``order`` gives it, and every result is the loop's bit for
    bit.  Results are folded in ``order``.  On failure the error is that of
    the first failing vertex in ``order``, which may sit in a later wave
    than another failing vertex; the images of vertices after it are put
    back as they were.
    """
    live = [v for v in order if not frozen[v]]
    rank = np.full(child.num_vertices, child.num_vertices, dtype=np.intp)
    rank[live] = np.arange(len(live))
    threshold = max(INCUMBENT_FRACTION * margin_target, 1e-12)
    results: dict[int, tuple] = {}  # vid -> (margins by join, achieved or None)
    moved_from: dict[int, np.ndarray] = {}
    limit, error = len(live), None

    def fail(vid: int, exc: Exception) -> None:
        nonlocal limit, error
        if rank[vid] < limit:
            limit, error = int(rank[vid]), exc

    owned = _processed_stars(child, np.where(frozen, -1, rank))
    at = rank.tolist()
    for members in _waves(child, frozen, order):
        members = [v for v in members.tolist() if at[v] < limit]
        jobs = []
        for vid in members:
            try:
                entries = [(s, [o for o in s if o != vid]) for s in owned.get(vid, ())
                           if exclude_simplex is None or not exclude_simplex(s)]
                planes = planes_for(vid)
                fol_indices = [fol_indices_for(vid, s) for s, _ in entries]
            except Exception as exc:  # raised below, in order
                fail(vid, exc)
                continue
            rows = images[[o for _, others in entries for o in others]]
            cuts = np.cumsum([len(others) for _, others in entries]).tolist()
            stars = [rows[a:b] for a, b in zip([0] + cuts, cuts)]
            jobs.append((vid, entries, stars, fol_indices, planes))
        incumbent = _join_margins([(images[vid], stars, fol_indices, planes)
                                   for vid, _, stars, fol_indices, planes in jobs])
        movers, reqs = [], []
        for (vid, entries, stars, fol_indices, planes), joins in zip(jobs, incumbent):
            if isinstance(joins, Exception):
                fail(vid, joins)
                continue
            keys = _join_keys(vid, entries, joins[0])
            margins = _by_join(keys, joins[1])
            results[vid] = (margins, None)
            if not (margins and min(margins.values()) < threshold):
                continue
            try:
                eps = epsilon_for(vid)
                if eps <= 0:
                    raise BudgetViolation(
                        f"vertex {vid} needs a move but the per-vertex budget is "
                        f"exhausted (eta = {eps:.3g})"
                    )
                reqs.append(PerturbationRequest(
                    point=images[vid],
                    epsilon=eps,
                    star_simplices=stars,
                    foliations=planes,
                    star_foliations=fol_indices,
                    constraint_flat=constraint_for(vid),
                    seed=cfg.seed * SEED_STRIDE + vid,
                    samples=cfg.samples,
                ))
            except Exception as exc:  # raised below, in order
                fail(vid, exc)
                continue
            movers.append((vid, keys))
        for (vid, keys), res in zip(movers, _perturb_vertices(reqs)):
            if isinstance(res, StarNotTransverse):
                failure = PerturbationFailed(
                    f"vertex {vid}: a processed star simplex lost transversality "
                    "to the local plane; the field varies too fast for the "
                    "achieved margins (raise the level)"
                )
                failure.__cause__ = res
                fail(vid, failure)
            elif isinstance(res, Exception):
                fail(vid, res)
            elif res.achieved_delta < margin_target:
                fail(vid, PerturbationFailed(
                    f"vertex {vid}: best margin {res.achieved_delta:.3g} below "
                    f"target {margin_target:.3g}"
                ))
            else:
                if res.moved > 0:
                    moved_from[vid] = images[vid].copy()
                    images[vid] = res.point
                results[vid] = (_by_join(keys, [m for *_, m in res.certificate]),
                                res.achieved_delta)
    if error is not None:
        for vid, point in moved_from.items():
            if rank[vid] > limit:
                images[vid] = point
        raise error

    achieved: dict[int, float] = {}
    certified: dict[tuple, float] = {}
    for vid in live:
        margins, delta = results[vid]
        if delta is not None:
            achieved[vid] = delta
        for join, m in margins.items():
            certified[join] = min(m, certified.get(join, np.inf))
    return achieved, certified, len(moved_from)


def _verify(child: SimplicialComplex, images: np.ndarray, fields, certified,
            cfg: JigglingConfig, ref):
    """The jiggled map, its transversality report and its C0/C1 distances
    to ``ref``; ``fields`` is what :func:`transversality_report` examines.

    Raises PerturbationFailed when the report does not pass.
    """
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
    return g, report, distance(ref, g, order=0), distance(ref, g, order=1)


# ---------------------------------------------------------------------------
# Euclidean and relative pipelines
# ---------------------------------------------------------------------------

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
        carriers = [tuple(g for g in row if g >= 0) for row in smap.ids.tolist()]
        from_a = np.array([c in a_faces for c in carriers], dtype=bool)
        from_b = np.array([c in b_faces for c in carriers], dtype=bool)
        if not from_b.any():
            break
        b_pts = child.vertices[from_b]
        near = np.array([
            float(np.min(np.linalg.norm(b_pts - p, axis=1)))
            for p in child.vertices
        ])
        if not any(max(near[v] for v in s) > v_radius
                   for s in child.all_simplices() if any(from_b[v] for v in s)):
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
    rmin_img, rmax_img = _image_radii(child, flin.images)
    terms = [(cfg.gamma - e1) / (1.0 + amp),
             cfg.gamma * 2.0 ** -level - e0,
             rmin_img / 4.0]
    if cfg.epsilon_vertex is not None:
        terms.append(cfg.epsilon_vertex * 2.0 ** -level)
    eta = 0.9 * min(terms)

    cap_a = np.inf
    near_a = np.zeros(child.num_vertices, dtype=bool)
    if from_a.any():
        tops, rmins, _ = top_radii(child, flin.images)
        rmin_of = dict(zip(tops, rmins.tolist()))
        tops_a = [top for top in child.top_simplices if any(from_a[v] for v in top)]
        ok, margins = _general_position_each([flin.images[list(top)] for top in tops_a],
                                             xi, cfg.sample_depth)
        for top, good, margin in zip(tops_a, ok.tolist(), margins.tolist()):
            if good and np.isfinite(margin):
                cap_a = min(cap_a, 0.5 * margin * rmin_of[top])
        for vid in range(child.num_vertices):
            near_a[vid] = any(
                from_a[o] for s in child._incident(vid) for o in s
            )

    def epsilon_for(vid):
        if near_a[vid] and np.isfinite(cap_a):
            return min(eta, cap_a)
        return eta

    def touches_b(s):
        return any(from_b[v] for v in s)

    images = np.array(flin.images)
    unperturbed = images.copy()
    planes_cache: dict[int, list] = {}

    def planes_for(vid):
        if vid not in planes_cache:
            planes_cache[vid] = [xi.plane_at(unperturbed[vid])]
        return planes_cache[vid]

    drift = _plane_drift(child, planes_for, xi)
    margin_target = max(
        cfg.margin_floor * 0.9 * cfg.gamma / (1.0 + amp),
        DRIFT_MARGIN_FACTOR * drift * rmax_img,
    )

    has_b = bool(from_b.any())
    achieved, certified, moved = _run_vertex_induction(
        child, images, frozen=from_a | from_b, order=range(child.num_vertices),
        planes_for=planes_for, fol_indices_for=lambda vid, s: (0,),
        epsilon_for=epsilon_for, margin_target=margin_target,
        constraint_for=lambda vid: None,
        exclude_simplex=touches_b if has_b else None, cfg=cfg,
    )

    jiggled = PLMap(child, images)
    if not is_piecewise_embedding(jiggled):
        raise EmbeddingLost(
            f"the jiggled map lost injectivity: {_embedding_failure(jiggled)}")
    # the certified region: tops touching A or leaving the collar of B
    fields = {top: xi for top in child.top_simplices
              if any(from_a[v] or near[v] > v_radius for v in top)} \
        if has_b else xi
    g, report, d0, d1 = _verify(child, images, fields, certified, cfg,
                                flin if native else fmap)
    # a run that examines no top still reports whether its field varies
    report.sampled = xi.kind != "constant"
    within = d1 < cfg.gamma and d0 < cfg.gamma * 2.0 ** -level
    if not within and not (moved == 0 and d0 == 0.0 and d1 == 0.0):
        raise BudgetViolation(
            f"realized distances d0={d0:.3g}, d1={d1:.3g} exceed the budget "
            f"gamma={cfg.gamma}, level={level}"
        )
    return JigglingOutcome(
        plmap=g, out_complex=child, subdivision=smap, report=report,
        level=level, d_c0=float(d0), d_c1=float(d1), eta=float(eta),
        margin_target=float(margin_target), achieved=achieved,
        moved_count=moved, config=cfg,
    )


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
    cfg = dataclasses.replace(config, gamma=float(gamma)) if config else \
        JigglingConfig(gamma=float(gamma))
    return _jiggle(f, complex_, xi, cfg, a, b, v_radius)


def jiggle_tower(f, complex_: SimplicialComplex, xi: Distribution,
                 config: JigglingConfig, levels) -> list[JigglingOutcome]:
    """One jiggling outcome per requested subdivision depth."""
    outcomes = []
    for level in levels:
        cfg = dataclasses.replace(config, level=int(level))
        outcomes.append(jiggle_euclidean(f, complex_, xi, cfg))
    return outcomes


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


def _locate_in_parent(complex_: SimplicialComplex, points) -> list[tuple[int, ...]]:
    """Minimal face of the complex whose relative interior holds each point."""
    faces = []
    for point, (top, b, defect) in zip(points, complex_._locate(points)):
        if defect > 1e-9:
            raise QueryNotInComplex(f"point {point} lies outside the complex")
        faces.append(tuple(v for v, w in zip(top, b) if w > SKELETON_TOL))
    return faces


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

    carrier_k = _locate_in_parent(complex_, refinement.vertices)
    level = 1 if cfg.level == "auto" else cfg.level
    mid, bmap = barycentric_subdivide(refinement)
    out, cmap = crystalline_subdivide(mid, level)
    sub = compose_subdivisions(bmap, cmap)

    carriers = [tuple(sorted({g for mid in row if mid >= 0 for g in carrier_k[mid]}))
                for row in sub.ids.tolist()]
    frozen = np.array([len(c) == 1 for c in carriers])
    order = sorted(range(out.num_vertices), key=lambda v: (len(carriers[v]), v))

    tops_by_carrier: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def parent_tops(carrier: tuple[int, ...]) -> list[tuple[int, ...]]:
        if carrier not in tops_by_carrier:
            cs = set(carrier)
            tops_by_carrier[carrier] = [
                t for t in complex_.top_simplices if cs <= set(t)
            ]
        return tops_by_carrier[carrier]

    images = np.array(out.vertices)
    unperturbed = images.copy()

    planes_cache: dict[int, list] = {}

    def planes_for(vid):
        if vid not in planes_cache:
            planes_cache[vid] = [
                per_top[t].plane_at(unperturbed[vid])
                for t in parent_tops(carriers[vid])
            ]
        return planes_cache[vid]

    def fol_indices_for(vid, s):
        gids: set[int] = set()
        for v in s:
            gids.update(carriers[v])
        tops = parent_tops(carriers[vid])
        idx = tuple(i for i, t in enumerate(tops) if gids <= set(t))
        return idx if idx else tuple(range(len(tops)))

    def constraint_for(vid):
        carrier = carriers[vid]
        if len(carrier) - 1 >= complex_.ambient_dim:
            return None
        return affine_span(complex_.vertices[list(carrier)])

    eps_cache: dict[int, float] = {}
    tops, rmins, _ = top_radii(out, out.vertices)
    rmin_of = dict(zip(tops, rmins.tolist()))
    # each vertex's distance to the nearest facet wall of its carrier face,
    # one stack per carrier facet
    wall = np.full(out.num_vertices, np.inf)
    by_carrier: dict[tuple[int, ...], list[int]] = {}
    for vid, carrier in enumerate(carriers):
        if len(carrier) >= 2:
            by_carrier.setdefault(carrier, []).append(vid)
    for carrier, vids in by_carrier.items():
        cpts = complex_.vertices[list(carrier)]
        for drop in range(len(carrier)):
            facet = np.delete(cpts, drop, axis=0)
            wall[vids] = np.minimum(wall[vids],
                                    _span_distances(unperturbed[vids], facet))
    wall = wall.tolist()

    def epsilon_for(vid):
        if vid not in eps_cache:
            room = min((rmin_of[s] for s in out._incident(vid) if s in rmin_of),
                       default=np.inf)
            eps_cache[vid] = 0.9 * min(wall[vid], 0.25 * room)
        return eps_cache[vid]

    positive = [epsilon_for(v) for v in range(out.num_vertices) if not frozen[v]]
    margin_target = cfg.margin_floor * (min(positive) if positive else 0.0)

    achieved, certified, moved = _run_vertex_induction(
        out, images, frozen=frozen, order=order, planes_for=planes_for,
        fol_indices_for=fol_indices_for, epsilon_for=epsilon_for,
        margin_target=margin_target, constraint_for=constraint_for,
        exclude_simplex=None, cfg=cfg,
    )

    for vid in range(out.num_vertices):
        cpts = complex_.vertices[list(carriers[vid])]
        b, defect = barycentric_coordinates(cpts, images[vid])
        if defect > SKELETON_TOL or float(np.min(b)) < -SKELETON_TOL:
            raise SkeletonViolation(
                f"vertex {vid} left its carrier face {carriers[vid]} "
                f"(defect {defect:.3g})"
            )

    cell_parent: dict[tuple[int, ...], tuple[int, ...]] = {}
    for cell in out.top_simplices:
        gids = set()
        for v in cell:
            gids.update(carriers[v])
        matches = parent_tops(tuple(sorted(gids)))
        if not matches:
            raise VolumeMismatch(f"cell {cell} has no parent top simplex")
        cell_parent[cell] = matches[0]
    for top in complex_.top_simplices:
        target = simplex_volume(complex_.coords(top))
        total = sum(simplex_volume(images[list(c)])
                    for c, t in cell_parent.items() if t == top)
        if target > 0 and abs(total - target) > VOLUME_REL_TOL * target:
            raise VolumeMismatch(
                f"images of {top} tile {total:.12g}, expected {target:.12g}"
            )

    t_map, report, d0, d1 = _verify(
        out, images, {cell: per_top[t] for cell, t in cell_parent.items()},
        certified, cfg, PLMap.identity(out))
    return JigglingOutcome(
        plmap=t_map, out_complex=out, subdivision=sub, report=report,
        level=level, d_c0=float(d0), d_c1=float(d1),
        eta=float(min(positive)) if positive else 0.0,
        margin_target=float(margin_target), achieved=achieved,
        moved_count=moved, config=cfg,
    )
