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
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    SimplicialComplex,
    SubdivisionMap,
    barycentric_coordinates,
    barycentric_subdivide,
    closure,
    compose_subdivisions,
    crystalline_subdivide,
    point_to_affine_span,
    shape_stats,
    simplex_volume,
    star,
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
from .perturb import PerturbationRequest, join_margins, perturb_vertex
from .plmaps import (
    PLMap,
    SampledMap,
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
    general_position,
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


def _linearize_exactly(fmap, complex_: SimplicialComplex, level: int):
    """The level-``level`` linearization plus its C0/C1 defect against f.

    Both defects are zero for a PLMap on the complex itself: ``linearize``
    interpolates it by exact vertex supports, so the maps agree as functions
    (vertex roundoff is below every tolerance in play).
    """
    flin, child, smap = linearize(fmap, complex_, level)
    if _is_native(fmap, complex_):
        return flin, child, smap, 0.0, 0.0
    return (flin, child, smap, distance(fmap, flin, order=0),
            distance(fmap, flin, order=1))


def _jacobian_amplification(child: SimplicialComplex) -> float:
    """How much a unit vertex move can tilt a cell's PL differential.

    For a cell with edge matrix E, perturbing every vertex image by at most
    eta changes the differential by at most eta * 2*sqrt(m)/sigma_min(E);
    the maximum of that factor over top cells converts per-vertex budgets
    into C1 budgets.
    """
    worst = 0.0
    for top in child.top_simplices:
        if len(top) < 2:
            continue
        pts = child.coords(top)
        edges = pts[1:] - pts[0]
        smin = np.linalg.svd(edges, compute_uv=False)[-1]
        if smin <= 0:
            raise DegenerateSimplex(f"degenerate domain cell {top}")
        worst = max(worst, 2.0 * math.sqrt(len(top) - 1) / float(smin))
    return worst


def _image_radii(child: SimplicialComplex,
                 images: np.ndarray) -> tuple[float, float]:
    """Smallest shape_stats rmin and largest rmax over the image cells."""
    rmin, rmax = np.inf, 0.0
    for top in child.top_simplices:
        if len(top) < 2:
            continue
        stats = shape_stats(images[list(top)])
        rmin = min(rmin, stats.rmin)
        rmax = max(rmax, stats.rmax)
    return float(rmin), float(rmax)


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
    below margin_floor / (4 * rmax), where rmax is the level-zero image
    circumradius estimate (cells shrink with the level while the bound stays
    put, so the field looks locally constant at cell scale eventually).
    """
    fmap = _as_input_map(f, complex_, xi)
    exact = _is_native(fmap, complex_)
    images0 = fmap.images if exact else fmap.evaluate_batch(complex_.vertices)
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

def _join_ids(vid: int, others: list[int], combo: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted([vid] + [others[j] for j in combo]))


def _by_join(vid: int, entries, joins) -> dict[tuple[int, ...], float]:
    """Fold ``join_margins`` tuples into the smallest margin per join simplex."""
    margins: dict[tuple[int, ...], float] = {}
    for _, si, combo, m in joins:
        join = _join_ids(vid, entries[si][1], combo)
        margins[join] = min(m, margins.get(join, np.inf))
    return margins


def _run_vertex_induction(child, images, *, frozen, order, planes_for,
                          fol_indices_for, epsilon_for, margin_target,
                          constraint_for, exclude_simplex, cfg):
    """Walk the vertices in order, perturbing each image point as needed.

    Every join of a vertex with the processed part of its star is checked at
    the incumbent position first; a vertex moves only when some margin falls
    below a quarter of the run's margin target.  Returns the per-vertex
    achieved deltas, the certified per-simplex margins, and the move count.
    Arguments after ``images`` are keyword-only so that a tracer can read
    ``frozen`` by name.
    """
    achieved: dict[int, float] = {}
    certified: dict[tuple, float] = {}
    moved = 0
    processed = frozen.copy()
    threshold = max(INCUMBENT_FRACTION * margin_target, 1e-12)
    for vid in order:
        if frozen[vid]:
            continue
        entries = []
        for s in child._incident(vid):
            if len(s) < 2:
                continue
            if exclude_simplex is not None and exclude_simplex(s):
                continue
            others = [o for o in s if o != vid]
            if all(processed[o] for o in others):
                entries.append((s, others))
        planes = planes_for(vid)
        fol_indices = [fol_indices_for(vid, s) for s, _ in entries]
        stars = [images[others] for _, others in entries]
        margins = _by_join(vid, entries,
                           join_margins(images[vid], stars, fol_indices, planes))
        if margins and min(margins.values()) < threshold:
            eps = epsilon_for(vid)
            if eps <= 0:
                raise BudgetViolation(
                    f"vertex {vid} needs a move but the per-vertex budget is "
                    f"exhausted (eta = {eps:.3g})"
                )
            req = PerturbationRequest(
                point=images[vid],
                epsilon=eps,
                star_simplices=stars,
                foliations=planes,
                star_foliations=fol_indices,
                constraint_flat=constraint_for(vid),
                seed=cfg.seed * SEED_STRIDE + vid,
                samples=cfg.samples,
            )
            try:
                res = perturb_vertex(req)
            except StarNotTransverse as exc:
                raise PerturbationFailed(
                    f"vertex {vid}: a processed star simplex lost transversality "
                    "to the local plane; the field varies too fast for the "
                    "achieved margins (raise the level)"
                ) from exc
            if res.achieved_delta < margin_target:
                raise PerturbationFailed(
                    f"vertex {vid}: best margin {res.achieved_delta:.3g} below "
                    f"target {margin_target:.3g}"
                )
            if res.moved > 0:
                moved += 1
                images[vid] = res.point
            achieved[vid] = res.achieved_delta
            margins = _by_join(vid, entries, res.certificate)
        for join, m in margins.items():
            certified[join] = min(m, certified.get(join, np.inf))
        processed[vid] = True
    return achieved, certified, moved


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
        images_k = fmap.images if native else fmap.evaluate_batch(complex_.vertices)
        for s in star(complex_, list(a_faces)):
            if len(s) < 2:
                continue
            if not general_position(images_k[list(s)], xi, cfg.sample_depth)[0]:
                raise PreconditionViolated(
                    f"star simplex {s} of A is not stratified transverse"
                )

    if cfg.level == "auto":
        level = auto_level(fmap, complex_, xi, cfg.gamma, cfg.margin_floor,
                           cfg.level_max)
    else:
        level = cfg.level

    while True:
        flin, child, smap, e0, e1 = _linearize_exactly(fmap, complex_, level)
        carriers = [tuple(sorted(g for g, _ in smap.vertex_support[vid]))
                    for vid in range(child.num_vertices)]
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
            "the linearized input is not a piecewise embedding"
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
        for top in child.top_simplices:
            if any(from_a[v] for v in top):
                img = flin.images[list(top)]
                ok, margin = general_position(img, xi, cfg.sample_depth)
                if ok and np.isfinite(margin):
                    cap_a = min(cap_a, 0.5 * margin * shape_stats(img).rmin)
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

    if not is_piecewise_embedding(PLMap(child, images)):
        raise EmbeddingLost("the jiggled map lost injectivity")
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


def _locate_in_parent(complex_: SimplicialComplex, point) -> tuple[int, ...]:
    """Minimal face of the complex whose relative interior holds the point."""
    top = complex_.containing_top_simplex(point)
    b, defect = barycentric_coordinates(complex_.coords(top), point)
    if defect > 1e-9:
        raise QueryNotInComplex(f"point {point} lies outside the complex")
    return tuple(v for v, w in zip(top, b) if w > SKELETON_TOL)


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

    for top, dist in per_top.items():
        if not general_position(complex_.coords(top), dist, cfg.sample_depth)[0]:
            raise PreconditionViolated(
                f"top simplex {top} is not stratified transverse to its "
                "plane field"
            )

    carrier_k = [_locate_in_parent(complex_, p) for p in refinement.vertices]
    level = 1 if cfg.level == "auto" else cfg.level
    mid, bmap = barycentric_subdivide(refinement)
    out, cmap = crystalline_subdivide(mid, level)
    sub = compose_subdivisions(bmap, cmap)

    carriers: list[tuple[int, ...]] = []
    for vid in range(out.num_vertices):
        gids: set[int] = set()
        for g, _ in sub.vertex_support[vid]:
            gids.update(carrier_k[g])
        carriers.append(tuple(sorted(gids)))
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
    rmin_cache: dict[tuple[int, ...], float] = {}
    out_tops = set(out.top_simplices)

    def epsilon_for(vid):
        if vid not in eps_cache:
            carrier = carriers[vid]
            cpts = complex_.vertices[list(carrier)]
            wall = np.inf
            if len(carrier) >= 2:
                for drop in range(len(carrier)):
                    facet = np.delete(cpts, drop, axis=0)
                    wall = min(wall, point_to_affine_span(unperturbed[vid], facet))
            room = np.inf
            for s in out._incident(vid):
                if s in out_tops:
                    if s not in rmin_cache:
                        rmin_cache[s] = shape_stats(out.coords(s)).rmin
                    room = min(room, rmin_cache[s])
            eps_cache[vid] = 0.9 * min(wall, 0.25 * room)
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
