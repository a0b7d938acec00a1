import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from jigglekit import complexes, engine, plmaps
from jigglekit.cli import (
    box_grid,
    complex_from_dict,
    complex_to_dict,
    contact_like,
    main,
    planar_rotor,
    strip,
    unit_square_grid,
    vertical_twist,
)
from jigglekit.complexes import (
    barycentric_subdivide,
    build_complex,
    crystalline_subdivide,
    point_to_affine_span,
    simplex_volume,
)
from jigglekit.engine import (
    REPORT_MARGIN_TOL,
    JigglingConfig,
    auto_level,
    jiggle_euclidean,
    jiggle_relative,
    jiggle_subdivision,
    jiggle_tower,
)
from jigglekit.errors import (
    AmbientMismatch,
    BudgetViolation,
    CollarTooSmall,
    EmbeddingLost,
    LevelExhausted,
    PerturbationFailed,
    PreconditionViolated,
    QueryNotInComplex,
    SkeletonViolation,
    VolumeMismatch,
)
from jigglekit.grassmann import Plane, d_proj
from jigglekit.plmaps import PLMap, SampledMap
from jigglekit.transversality import (
    Distribution,
    stratified_transverse,
    transversality_report,
)

HORIZONTAL = Distribution.constant(Plane(np.array([[1.0, 0.0]])))
DIAGONAL = Distribution.constant(Plane(np.array([[1.0, 1.0]]) / math.sqrt(2.0)))
HORIZONTAL_3D = Distribution.constant(Plane(np.eye(3)[:1]))
E1_3D = Distribution.constant(Plane(np.array([[1.0, 0.0, 0.0]])))


def grid_setup():
    grid = unit_square_grid(2)
    return grid, PLMap.identity(grid)


def test_config_validation():
    with pytest.raises(PreconditionViolated):
        JigglingConfig(gamma=-0.1)
    with pytest.raises(PreconditionViolated):
        JigglingConfig(gamma=0.2, margin_floor=0.0)
    with pytest.raises(PreconditionViolated):
        JigglingConfig(gamma=0.2, level=-1)
    assert JigglingConfig(gamma=0.2, level="auto").level == "auto"


@pytest.mark.parametrize("field", ["gamma", "margin_floor", "epsilon_vertex"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, value):
    kw = {"gamma": 0.2, field: value}
    with pytest.raises(PreconditionViolated, match=field):
        JigglingConfig(**kw)


@pytest.mark.parametrize("kw", [
    # each used to raise a bare ValueError or TypeError, or was accepted
    dict(gamma="abc"), dict(gamma=None), dict(gamma=[0.2]), dict(gamma=True),
    dict(margin_floor="abc"), dict(margin_floor=None), dict(margin_floor=True),
    dict(epsilon_vertex="abc"), dict(epsilon_vertex=[0.1]), dict(epsilon_vertex=False),
], ids=repr)
def test_config_rejects_values_that_are_not_real_numbers(kw):
    field = next(iter(kw))
    with pytest.raises(PreconditionViolated, match=f"{field} must be a finite real number"):
        JigglingConfig(**({"gamma": 0.2} | kw))


def test_config_rejects_a_negative_vertex_budget():
    # epsilon_vertex=-1 used to give eta = -0.9 at level 0, and a misleading
    # BudgetViolation at level 1
    with pytest.raises(PreconditionViolated, match="epsilon_vertex"):
        JigglingConfig(gamma=0.2, epsilon_vertex=-1.0)
    sq = unit_square_grid(1)
    field = Distribution.constant(Plane(np.array([[0.6, 0.8]])))
    out = jiggle_euclidean(SampledMap(sq, lambda P: P), sq, field,
                           JigglingConfig(gamma=0.2, level=0, epsilon_vertex=0.0))
    assert out.eta == 0.0 and out.moved_count == 0 and out.report.passed


@pytest.mark.parametrize("field", ["samples", "sample_depth", "level_max", "seed",
                                   "level"])
@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_config_rejects_non_integer_counts(field, value):
    # samples=2.5 used to die later with a bare TypeError in the vertex search, and
    # level=2.5 was truncated to 2
    with pytest.raises(PreconditionViolated, match=f"{field} must be an integer"):
        JigglingConfig(gamma=0.2, **{field: value})


def test_config_rejects_a_negative_seed():
    # seed=-1 used to pass here and fail in numpy's default_rng once a vertex moved
    with pytest.raises(PreconditionViolated, match="seed must be nonnegative"):
        JigglingConfig(gamma=0.2, level=2, seed=-1)


def test_config_keeps_integer_counts_as_ints():
    cfg = JigglingConfig(gamma=0.2, level=np.int64(2), samples=np.int32(8))
    assert (cfg.level, cfg.samples) == (2, 8)
    assert type(cfg.level) is int and type(cfg.samples) is int


def test_auto_level_checks_the_ambient_dimension_first():
    sq = unit_square_grid(1)
    with pytest.raises(AmbientMismatch):
        auto_level(PLMap.identity(sq), sq, planar_rotor(1e-4), 0.2)


def test_grid_auto_run_frozen_outcome():
    """The flagship scenario: 8 triangles against a horizontal line field."""
    grid, f = grid_setup()
    out = jiggle_euclidean(f, grid, HORIZONTAL,
                           JigglingConfig(gamma=0.2, level="auto", seed=7))
    assert out.level == 0  # constant field, exactly PL input
    assert out.report.passed
    assert out.moved_count == 3
    assert out.d_c0 == pytest.approx(0.009004954362095552, rel=1e-12)
    assert out.d_c1 == pytest.approx(0.04899121568569967, rel=1e-12)
    assert out.eta == pytest.approx(0.017728780776841913, rel=1e-12)
    assert out.report.min_eps_margin == pytest.approx(0.017118104447469546, rel=1e-12)
    assert out.report.min_semitrans_margin == pytest.approx(0.008605703810482979, rel=1e-12)


def test_a_folded_input_names_the_flipped_top():
    grid = unit_square_grid(2)
    images = grid.vertices.copy()
    images[4] = (1.2, 0.5)  # the centre vertex pushed past the right edge
    with pytest.raises(PreconditionViolated,
                       match=r"not a piecewise embedding: top \(1, 4, 5\) flipped"):
        jiggle_euclidean(PLMap(grid, images), grid, HORIZONTAL,
                         JigglingConfig(gamma=0.2, level=0))


def test_a_lost_embedding_names_the_reason(monkeypatch):
    """Induction that folds the map (here forced after the fact) fails the
    post-check, whose message says why."""
    real = engine._run_vertex_induction

    def folding(child, images, **kwargs):
        result = real(child, images, **kwargs)
        images[4] = (1.2, 0.5)
        return result

    monkeypatch.setattr(engine, "_run_vertex_induction", folding)
    grid, f = grid_setup()
    with pytest.raises(EmbeddingLost,
                       match=r"lost injectivity: top \(1, 4, 5\) flipped"):
        jiggle_euclidean(f, grid, HORIZONTAL, JigglingConfig(gamma=0.2, level=0))


def test_grid_run_obeys_budgets_and_kills_horizontal_edges():
    grid, f = grid_setup()
    cfg = JigglingConfig(gamma=0.2, level=0, seed=7)
    out = jiggle_euclidean(f, grid, HORIZONTAL, cfg)
    assert out.d_c1 < 0.2
    assert out.d_c0 < 0.2 * 2.0 ** -out.level
    imgs = out.plmap.images
    for u, w in out.out_complex.simplices_of_dim(1):
        d = imgs[w] - imgs[u]
        assert abs(d[1]) > 1e-9 * np.linalg.norm(d)


def test_grid_determinism_and_idempotence():
    grid, f = grid_setup()
    cfg = JigglingConfig(gamma=0.2, level=0, seed=7)
    first = jiggle_euclidean(f, grid, HORIZONTAL, cfg)
    again = jiggle_euclidean(f, grid, HORIZONTAL, cfg)
    np.testing.assert_array_equal(first.plmap.images, again.plmap.images)
    # feeding the passed outcome back in moves nothing, bitwise
    rerun = jiggle_euclidean(first.plmap, first.out_complex, HORIZONTAL, cfg)
    assert rerun.moved_count == 0
    assert rerun.d_c0 == 0.0
    np.testing.assert_array_equal(rerun.plmap.images, first.plmap.images)


def test_grid_level_two_subdivides_and_passes():
    grid, f = grid_setup()
    out = jiggle_euclidean(f, grid, HORIZONTAL,
                           JigglingConfig(gamma=0.2, level=2, seed=7))
    assert out.out_complex.num_vertices == 81
    assert len(out.out_complex.top_simplices) == 8 * 16
    assert out.moved_count == 36
    assert out.d_c0 == pytest.approx(0.002493164972129321, rel=1e-12)
    assert out.report.passed


def test_gamma_zero_needs_an_already_clean_map():
    grid, f = grid_setup()
    with pytest.raises(BudgetViolation):
        jiggle_euclidean(f, grid, HORIZONTAL,
                         JigglingConfig(gamma=0.0, level=0, seed=1))
    tilt = Distribution.constant(Plane(np.array(
        [[math.cos(0.3), math.sin(0.3)]])))
    out = jiggle_euclidean(f, grid, tilt, JigglingConfig(gamma=0.0, level=0, seed=1))
    assert out.report.passed and out.moved_count == 0
    np.testing.assert_array_equal(out.plmap.images, grid.vertices)


def test_auto_level_is_zero_for_constant_fields_on_pl_input():
    grid, f = grid_setup()
    assert auto_level(f, grid, HORIZONTAL, 0.2) == 0


def test_auto_level_climbs_with_field_oscillation():
    box = box_grid(2)
    f = PLMap.identity(box)
    assert auto_level(f, box, planar_rotor(2.5e-4), 0.2, 1e-3, 8) == 1
    assert auto_level(f, box, planar_rotor(5e-4), 0.2, 1e-3, 8) == 2


def test_auto_level_gives_up_on_oscillation_floors():
    """Nearest-neighbor samples keep a fixed jump however deep we go."""
    box = box_grid(2)
    f = PLMap.identity(box)
    pts = np.array([[0.5, 1.0, 1.0], [1.5, 1.0, 1.0]])
    planes = [Plane(np.array([[1.0, 0.0, 0.0]])),
              Plane(np.array([[0.0, 1.0, 0.0]]))]
    wild = Distribution(3, 1, "samples",
                        lambda p: planes[int(np.argmin(
                            np.linalg.norm(pts - p, axis=1)))])
    with pytest.raises(LevelExhausted):
        auto_level(f, box, wild, 0.2, 1e-3, 8)


def test_tower_outcomes_frozen_margins():
    grid, f = grid_setup()
    outs = jiggle_tower(f, grid, HORIZONTAL, JigglingConfig(gamma=0.2, seed=3),
                        [2, 3])
    assert [o.level for o in outs] == [2, 3]
    assert all(o.report.passed for o in outs)
    assert outs[0].report.min_eps_margin == pytest.approx(0.01659848756602642, rel=1e-12)
    assert outs[1].report.min_eps_margin == pytest.approx(0.016602008663536214, rel=1e-12)
    assert outs[1].d_c0 < outs[0].d_c0


def test_box_complex_against_axis_field():
    box = box_grid(1)
    f = PLMap.identity(box)
    out = jiggle_euclidean(f, box, E1_3D, JigglingConfig(gamma=0.2, level=0, seed=2))
    assert out.report.passed
    assert out.moved_count == 4
    assert out.d_c0 == pytest.approx(0.016824467888473308, rel=1e-12)
    assert out.d_c1 == pytest.approx(0.04890061035604969, rel=1e-12)


def test_fast_turning_field_fails_honestly_at_low_level():
    box = box_grid(1)
    f = PLMap.identity(box)
    with pytest.raises(PerturbationFailed):
        jiggle_euclidean(f, box, planar_rotor(0.5),
                         JigglingConfig(gamma=0.2, level=0, seed=2))


# ---------------------------------------------------------------------------
# input maps other than a PLMap on the complex itself
# ---------------------------------------------------------------------------

def _shear(P):
    """(x + 0.1 sin 3y, y): keeps horizontal edges horizontal, so a
    horizontal field makes the run move vertices."""
    return np.stack([P[:, 0] + 0.1 * np.sin(3.0 * P[:, 1]), P[:, 1]], axis=1)


def _bend(p):
    return np.array([p[0] + 0.2 * p[1] ** 2, p[1]])


def _cubic(P):
    return np.stack([P[:, 0] + 0.1 * P[:, 1] ** 3, P[:, 1]], axis=1)


def _input_maps(K):
    fine, _ = crystalline_subdivide(K, 1)
    return {
        "sampled": SampledMap(K, _shear),
        "callable": _bend,
        "reloaded": PLMap(complex_from_dict(complex_to_dict(K)), _cubic(K.vertices)),
        "finer": PLMap(fine, _cubic(fine.vertices)),
    }


# (moved_count, d_c0, d_c1, eta, sha256 of the jiggled images) at level 1
INPUT_MAP_PINS = {
    "sampled": (10, 0.006328263107130657, 0.11553781406746723,
                0.003964695433569227,
                "303f5971a4ff7ea83e11bdce724ecf5346743cd0afbd89f595b5341aa7fc68ee"),
    "callable": (10, 0.005426496824703679, 0.06618278726336183,
                 0.006863163817981906,
                 "4222e8a37d84e3437707b74c0fd203624f06f0568ce3430fd5a623ae7347dcb4"),
    "reloaded": (10, 0.0051020246920800115, 0.04676289325949903,
                 0.00932354332062878,
                 "25a3125bf5a91375fe15a6becc283ef97b48c30e88d638d13b6c08295a321db0"),
    "finer": (10, 0.005102024692079882, 0.04676289325949866,
              0.009323543320628737,
              "585d3c88b2e6bd9ad48a0e4ae56e9fa0c04e053be78e4f3c682b8de5a3fb1acc"),
}


@pytest.mark.parametrize("kind", sorted(INPUT_MAP_PINS))
def test_input_map_kinds_frozen_outcomes(kind):
    """A sampled map, a point-wise callable, a PLMap on an equal copy of K
    and a PLMap on a finer complex each take the linearize-then-jiggle path
    at level 1 against a horizontal field."""
    K = unit_square_grid(2)
    out = jiggle_euclidean(_input_maps(K)[kind], K, HORIZONTAL,
                           JigglingConfig(gamma=0.2, level=1, seed=4))
    moved, d0, d1, eta, digest = INPUT_MAP_PINS[kind]
    assert out.report.passed
    assert out.moved_count == moved
    assert out.d_c0 == pytest.approx(d0, rel=1e-12)
    assert out.d_c1 == pytest.approx(d1, rel=1e-12)
    assert out.eta == pytest.approx(eta, rel=1e-12)
    assert hashlib.sha256(out.plmap.images.tobytes()).hexdigest() == digest


def test_auto_level_of_a_sampled_map_frozen():
    K = unit_square_grid(2)
    assert auto_level(SampledMap(K, _shear), K, HORIZONTAL, 0.2) == 2


@pytest.mark.parametrize("evaluator", [
    lambda P: np.full(np.shape(P), np.nan),
    lambda P: np.where(P[:, :1] > 0.9, np.nan, P),
    lambda P: np.where(P[:, :1] > 0.9, np.inf, P),
], ids=["all-nan", "nan-at-x-1", "inf-at-x-1"])
def test_a_map_with_non_finite_values_is_a_typed_error(evaluator):
    """Rejected before any distance or SVD sees the values (a fixed level
    died with a bare LinAlgError from the distance's SVD)."""
    K = unit_square_grid(1)
    f = SampledMap(K, evaluator)
    for cfg in (JigglingConfig(gamma=0.2, level=1), JigglingConfig(gamma=0.2)):
        with pytest.raises(PreconditionViolated, match="non-finite"):
            jiggle_euclidean(f, K, HORIZONTAL, cfg)
    with pytest.raises(PreconditionViolated, match="non-finite"):
        jiggle_relative(f, K, HORIZONTAL, 0.2, a=[(0,)])


# ---------------------------------------------------------------------------
# subdivision pipeline
# ---------------------------------------------------------------------------

def wedge_pair():
    parent = build_complex(2, [(0, 0), (2, 3), (4, 1)], [(0, 1, 2)])
    fan = build_complex(
        2,
        [(0, 0), (2, 3), (4, 1), (1, 1.5), (2, 1.5)],
        [(0, 3, 4), (1, 3, 4), (1, 2, 4), (0, 2, 4)],
    )
    return parent, fan


def test_subdivision_fan_scenario_frozen_outcome():
    parent, fan = wedge_pair()
    plane = HORIZONTAL.plane_at(np.zeros(2))
    assert stratified_transverse(parent.vertices[[0, 1, 2]], plane)
    assert not stratified_transverse(fan.vertices[[1, 3, 4]], plane)

    out = jiggle_subdivision(parent, fan, HORIZONTAL,
                             JigglingConfig(gamma=0.2, seed=3))
    assert out.report.passed
    assert out.level == 1
    assert out.moved_count == 5
    assert out.out_complex.num_vertices == 57
    assert out.d_c0 == pytest.approx(0.01899639825515754, rel=1e-12)
    assert out.report.min_eps_margin == pytest.approx(0.049928360918929104, rel=1e-12)


def test_subdivision_keeps_vertices_in_their_carriers():
    parent, fan = wedge_pair()
    out = jiggle_subdivision(parent, fan, HORIZONTAL,
                             JigglingConfig(gamma=0.2, seed=3))
    child, img = out.out_complex, out.plmap.images
    for cid in range(3):
        hits = [vid for vid in range(child.num_vertices)
                if np.array_equal(child.vertices[vid], parent.vertices[cid])]
        assert hits and all(np.array_equal(img[v], parent.vertices[cid])
                            for v in hits)
    worst = 0.0
    for vid in range(child.num_vertices):
        for e in ((0, 1), (1, 2), (0, 2)):
            wall = parent.vertices[list(e)]
            if point_to_affine_span(child.vertices[vid], wall) < 1e-12:
                worst = max(worst, point_to_affine_span(img[vid], wall))
    assert worst <= 1e-12


def test_subdivision_preserves_volume_and_transversality():
    parent, fan = wedge_pair()
    out = jiggle_subdivision(parent, fan, HORIZONTAL,
                             JigglingConfig(gamma=0.2, seed=3))
    img = out.plmap.images
    total = sum(simplex_volume(img[list(c)]) for c in out.out_complex.top_simplices)
    target = simplex_volume(parent.vertices[[0, 1, 2]])
    assert abs(total - target) / target <= 1e-9
    plane = HORIZONTAL.plane_at(np.zeros(2))
    assert all(stratified_transverse(img[list(c)], plane)
               for c in out.out_complex.top_simplices)


def test_subdivision_trivial_refinement_is_identity():
    parent, _ = wedge_pair()
    out = jiggle_subdivision(parent, parent, HORIZONTAL,
                             JigglingConfig(gamma=0.2, seed=3))
    assert out.moved_count == 0
    np.testing.assert_array_equal(out.plmap.images, out.out_complex.vertices)


def two_top_scene():
    """A two-triangle square, refined by the 2 x 2 grid, with its own
    constant line field on each triangle."""
    def line(x, y):
        return Distribution.constant(Plane(np.array([[x, y]]) / math.hypot(x, y)))

    fields = {(0, 1, 3): line(2.0, 1.0), (0, 2, 3): line(1.0, 2.0)}
    return unit_square_grid(1), unit_square_grid(2), fields


def record_rows(report):
    """(simplex, transverse, eps_margin, certificate or None) per record."""
    return [(s, ok, eps, None if math.isnan(semi) else semi)
            for s, ok, eps, semi in zip(report.records, report.transverse.tolist(),
                                        report.eps_margin.tolist(),
                                        report.semitrans_margin.tolist())]


def reference_subdivision_report(out, parent, fields, certificates):
    """The report as one call per parent top, each restricted to that top's
    cells, records concatenated: a face shared by two tops is listed once
    per top."""
    child = out.out_complex
    parts = []
    for top, xi in fields.items():
        cells = {cell: xi for cell in child.top_simplices
                 if parent._locate(child.coords(cell).mean(axis=0))[0][0] == top}
        parts.append(transversality_report(
            child, out.plmap.images, cells, sample_depth=out.config.sample_depth,
            margin_tol=REPORT_MARGIN_TOL, certificates=certificates))
    return parts


def test_subdivision_reports_a_face_of_two_tops_once(monkeypatch):
    parent, refinement, fields = two_top_scene()
    certificates = []

    def spy(*args, **kwargs):
        certificates.append(kwargs["certificates"])
        return transversality_report(*args, **kwargs)

    monkeypatch.setattr(engine, "transversality_report", spy)
    out = jiggle_subdivision(parent, refinement, fields,
                             JigglingConfig(gamma=0.2, level=1, seed=0))
    assert len(certificates) == 1
    assert out.moved_count == 44
    assert hashlib.sha256(out.plmap.images.tobytes()).hexdigest() == \
        "877d19790c343c3b0b617543e4448ef7b1d1f8f713b03286ea818cd14db51fe2"
    assert out.d_c0 == pytest.approx(0.009765968115894847, rel=1e-12)
    assert out.d_c1 == pytest.approx(0.2389866343152724, rel=1e-12)

    parts = reference_subdivision_report(out, parent, fields, certificates[0])
    assert sum(len(p.records) for p in parts) == 626
    merged = {}
    for s, ok, eps, semi in (r for p in parts for r in record_rows(p)):
        seen = merged.get(s)
        if seen is not None:
            assert seen[3] == semi
            ok, eps = seen[1] and ok, min(seen[2], eps)
        merged[s] = (s, ok, eps, semi)
    report = out.report
    assert len(report.records) == 609
    assert record_rows(report) == sorted(merged.values(), key=lambda r: (len(r[0]), r[0]))
    assert report.min_eps_margin == min(p.min_eps_margin for p in parts)
    assert report.min_semitrans_margin == min(p.min_semitrans_margin for p in parts)
    assert report.passed is all(p.passed for p in parts) is True
    assert report.sampled is any(p.sampled for p in parts) is False


def _moved_after_induction(monkeypatch, move):
    """Run the real induction, then ``move(child, images, frozen)``."""
    real = engine._run_vertex_induction

    def spy(child, images, **kwargs):
        result = real(child, images, **kwargs)
        move(child, images, kwargs["frozen"])
        return result

    monkeypatch.setattr(engine, "_run_vertex_induction", spy)


def _off_the_bottom_edge(child, images, frozen):
    """Lift the first live vertex of the edge (0, 0)-(4, 1) off its line,
    into the triangle."""
    edge = np.array([[0.0, 0.0], [4.0, 1.0]])
    vid = next(v for v in range(child.num_vertices) if not frozen[v]
               and point_to_affine_span(child.vertices[v], edge) < 1e-12)
    images[vid] += (-0.01, 0.04)


def _folded(child, images, frozen):
    """Carry the interior vertex nearest (0, 0) deep into the triangle, out
    of its own star, so that some of its cells flip."""
    inside = [v for v in range(child.num_vertices) if not frozen[v] and all(
        point_to_affine_span(child.vertices[v], child.vertices[list(e)]) > 1e-9
        for e in ((0, 1), (1, 2), (0, 2)))]
    vid = min(inside, key=lambda v: float(np.linalg.norm(child.vertices[v])))
    images[vid] = (3.4, 1.1)


SUBDIVISION_FAILURES = {
    # three of the fan's four triangles leave the parent uncovered
    "no-subdivision": (lambda parent, fan: build_complex(
        2, fan.vertices, fan.top_simplices[:3]), None,
        VolumeMismatch, r"does not subdivide"),
    # the field runs along the edge (0, 0)-(4, 1)
    "not-transverse": (None, Distribution.constant(
        Plane(np.array([[4.0, 1.0]]) / math.sqrt(17.0))),
        PreconditionViolated, r"top simplex \(0, 1, 2\) is not stratified transverse"),
    "off-carrier": (None, _off_the_bottom_edge,
                    SkeletonViolation, r"left its carrier face \(0, 2\)"),
    "folded": (None, _folded, VolumeMismatch, r"images of \(0, 1, 2\) tile"),
}


@pytest.mark.parametrize("case", sorted(SUBDIVISION_FAILURES))
def test_subdivision_failures_are_typed(case, monkeypatch):
    refine, twist, error, message = SUBDIVISION_FAILURES[case]
    parent, fan = wedge_pair()
    xi = HORIZONTAL
    if isinstance(twist, Distribution):
        xi = twist
    elif twist is not None:
        _moved_after_induction(monkeypatch, twist)
    refinement = refine(parent, fan) if refine else fan
    with pytest.raises(error, match=message):
        jiggle_subdivision(parent, refinement, xi, JigglingConfig(gamma=0.2, level=1))


def test_subdivision_checks_make_no_call_per_vertex_or_cell(monkeypatch):
    """The skeleton and tiling checks are stacked passes: a fan run makes
    as many ``barycentric_coordinates`` calls at level 2 as at level 1,
    those of locating the refinement's vertices, and no ``simplex_volume``
    call at all."""
    counts = Counter()
    for name in ("barycentric_coordinates", "simplex_volume"):
        def counted(*args, _real=getattr(complexes, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        for module in (complexes, plmaps, engine):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    per_level = []
    for level in (1, 2):
        counts.clear()
        jiggle_subdivision(*wedge_pair(), HORIZONTAL, JigglingConfig(gamma=0.2, level=level))
        per_level.append(dict(counts))
    assert per_level[0]["barycentric_coordinates"] > 0
    assert "simplex_volume" not in per_level[0]
    assert per_level[0] == per_level[1]


TETRAHEDRON = np.array([(0, 0, 0), (3, 0.2, 0.1), (0.3, 2.9, 0.2), (0.1, 0.4, 3.1)])


def tetrahedron_scene():
    """A tetrahedron, its barycentric subdivision as the refinement, and a
    constant line field from vertex 0 towards the centroid, which runs
    along a refinement edge."""
    parent = build_complex(3, TETRAHEDRON, [(0, 1, 2, 3)])
    toward = TETRAHEDRON.mean(axis=0) - TETRAHEDRON[0]
    line = Distribution.constant(Plane(toward[None] / np.linalg.norm(toward)))
    return parent, barycentric_subdivide(parent)[0], line


def _tetrahedron_coordinates(points):
    """Barycentric coordinates of each row of ``points`` in the tetrahedron."""
    edges = (TETRAHEDRON[1:] - TETRAHEDRON[0]).T
    rest = np.linalg.solve(edges, (np.asarray(points) - TETRAHEDRON[0]).T).T
    return np.column_stack([1.0 - rest.sum(axis=1), rest])


def test_subdivision_in_3d_keeps_carriers_and_tiles():
    """Subdivision mode on a tetrahedron at level 0: the report passes,
    every vertex stays on its carrier face and the jiggled cells still
    subdivide the tetrahedron.  ``d_c1`` is not held to ``gamma`` here:
    this mode does not enforce ``gamma`` yet, and the scene reads 0.249
    under ``gamma = 0.2`` (an open bug in ROADMAP.md)."""
    parent, refinement, line = tetrahedron_scene()
    out = jiggle_subdivision(parent, refinement, line, JigglingConfig(gamma=0.2, level=0))
    child, img = out.out_complex, out.plmap.images
    assert out.report.passed
    assert len(child.top_simplices) == 576 and out.moved_count == 38
    carrier = _tetrahedron_coordinates(child.vertices) > 1e-12
    moved = _tetrahedron_coordinates(img)
    assert np.abs(moved[~carrier]).max() <= 1e-12
    assert moved[carrier].min() >= -1e-12
    assert plmaps.complex_subdivides(parent, build_complex(3, img, child.top_simplices,
                                                           validate=False))


def _folded_3d(child, images, frozen):
    """Carry the interior vertex nearest vertex 0 of the tetrahedron deep
    towards vertex 1, out of its own star, so that some of its cells flip."""
    interior = (_tetrahedron_coordinates(child.vertices) > 1e-9).all(axis=1)
    vid = min(np.flatnonzero(~frozen & interior),
              key=lambda v: float(np.linalg.norm(child.vertices[v])))
    images[vid] = 0.7 * TETRAHEDRON[1] + 0.1 * TETRAHEDRON[[0, 2, 3]].sum(axis=0)


@pytest.mark.parametrize("case", ["folded", "no-subdivision"])
def test_subdivision_in_3d_failures_are_typed(case, monkeypatch):
    parent, refinement, line = tetrahedron_scene()
    if case == "folded":
        _moved_after_induction(monkeypatch, _folded_3d)
        message = r"images of \(0, 1, 2, 3\) tile"
    else:
        refinement = build_complex(3, refinement.vertices, refinement.top_simplices[1:])
        message = r"does not subdivide"
    with pytest.raises(VolumeMismatch, match=message):
        jiggle_subdivision(parent, refinement, line, JigglingConfig(gamma=0.2, level=0))


def test_subdivision_budgets_obey_epsilon_vertex():
    """epsilon_vertex caps every subdivision budget at 0.9 * epsilon_vertex
    * 2**-level, as it caps eta in the other pipelines; a cap above every
    budget changes nothing."""
    parent, fan = wedge_pair()
    free = jiggle_subdivision(parent, fan, HORIZONTAL,
                              JigglingConfig(gamma=0.2, level=2, seed=3))
    capped = jiggle_subdivision(parent, fan, HORIZONTAL,
                                JigglingConfig(gamma=0.2, level=2, seed=3,
                                               epsilon_vertex=0.004))
    cap = 0.9 * 0.004 * 2.0 ** -2
    assert cap < free.eta and capped.eta == cap
    assert capped.report.passed and capped.moved_count > 0
    moves = np.linalg.norm(capped.plmap.images - capped.out_complex.vertices, axis=1)
    assert moves.max() <= cap
    assert np.linalg.norm(free.plmap.images - free.out_complex.vertices, axis=1).max() > cap
    loose = jiggle_subdivision(parent, fan, HORIZONTAL,
                               JigglingConfig(gamma=0.2, level=2, seed=3,
                                              epsilon_vertex=1e6))
    assert loose.eta == free.eta and loose.margin_target == free.margin_target
    assert loose.plmap.images.tobytes() == free.plmap.images.tobytes()


def test_subdivision_fields_key_every_top_and_only_tops():
    parent, refinement, fields = two_top_scene()
    cfg = JigglingConfig(gamma=0.2, level=1)
    with pytest.raises(QueryNotInComplex):
        jiggle_subdivision(parent, refinement,
                           {**fields, (0, 1, 2): HORIZONTAL}, cfg)
    with pytest.raises(PreconditionViolated, match=r"\(0, 2, 3\)"):
        jiggle_subdivision(parent, refinement,
                           {(0, 1, 3): fields[(0, 1, 3)]}, cfg)


# ---------------------------------------------------------------------------
# relative pipeline
# ---------------------------------------------------------------------------

def test_relative_strip_fixes_the_anchor_edge():
    S = strip(3)
    f = PLMap.identity(S)
    out = jiggle_relative(f, S, DIAGONAL, 0.2, a=[(0, 4)],
                          config=JigglingConfig(gamma=0.2, seed=5))
    assert out.report.passed
    assert out.level == 0
    assert out.moved_count == 1
    assert out.d_c0 == pytest.approx(0.01652473159595071, rel=1e-12)
    assert out.d_c1 == pytest.approx(0.03304946319190142, rel=1e-12)
    child, img = out.out_complex, out.plmap.images
    anchored = [v for v in range(child.num_vertices)
                if abs(child.vertices[v][0]) < 1e-12]
    assert len(anchored) >= 2
    assert all(np.array_equal(img[v], child.vertices[v]) for v in anchored)
    plane = DIAGONAL.plane_at(np.zeros(2))
    assert all(stratified_transverse(img[list(c)], plane)
               for c in child.top_simplices)


def test_relative_collar_raises_at_fixed_level():
    S = strip(3)
    f = PLMap.identity(S)
    with pytest.raises(CollarTooSmall):
        jiggle_relative(f, S, DIAGONAL, 0.2, a=[], b=[(3, 7)], v_radius=0.3,
                        config=JigglingConfig(gamma=0.2, seed=5, level=0))


def test_relative_collar_auto_raises_level_and_freezes_b():
    S = strip(3)
    f = PLMap.identity(S)
    out = jiggle_relative(f, S, DIAGONAL, 0.2, a=[], b=[(3, 7)], v_radius=0.3,
                          config=JigglingConfig(gamma=0.2, seed=5))
    assert out.level == 2
    assert out.moved_count == 10
    assert out.d_c0 == pytest.approx(0.005099030367707335, rel=1e-12)
    child, img = out.out_complex, out.plmap.images
    frozen = [v for v in range(child.num_vertices)
              if abs(child.vertices[v][0] - 3.0) < 1e-12]
    assert len(frozen) == 5
    assert all(np.array_equal(img[v], child.vertices[v]) for v in frozen)


# The small scenes of the benchmark at seed 0, and relative mode with a
# nonempty B, and the sha256 of the bundle each writes through ``jigglekit
# jiggle``: a speedup must keep them byte for byte.
_FAN_PARENT = {"ambient_dim": 2, "vertices": [[0, 0], [2, 3], [4, 1]],
               "top_simplices": [[0, 1, 2]]}
_FAN = {"ambient_dim": 2,
        "vertices": [[0, 0], [2, 3], [4, 1], [1, 1.5], [2, 1.5]],
        "top_simplices": [[0, 3, 4], [1, 3, 4], [1, 2, 4], [0, 2, 4]]}
_HORIZONTAL = {"type": "constant", "basis": [[1.0, 0.0]]}
BUNDLE_PINS = [
    ("euclidean",
     {"complex": "box_grid(1)",
      "distribution": {"type": "builtin", "name": "planar_rotor(0.0001)"},
      "config": {"gamma": 0.2, "level": 0, "seed": 0}},
     "fe03849d57d5e33da676021cfd0b8bcd1957e5db8482ea7b7859d54e43678669"),
    ("tower",
     {"complex": "unit_square_grid(2)", "distribution": _HORIZONTAL,
      "config": {"gamma": 0.2, "seed": 0}, "levels": [1, 2]},
     "af9f64f3ed3787d9105127c1cb318d838a99679ca4b654fc8368357164a03e42"),
    ("subdivision",
     {"complex": _FAN_PARENT, "distribution": _HORIZONTAL,
      "config": {"gamma": 0.2, "level": 1, "seed": 0}, "refinement": _FAN},
     "29b224cc0c43d6545286b47e5e18ea369fa60090a97d5d94411ebae8270a5a9d"),
    ("relative",
     {"complex": "strip(3)",
      "distribution": {"type": "constant", "basis": [[1.0 / math.sqrt(2.0),
                                                      1.0 / math.sqrt(2.0)]]},
      "config": {"gamma": 0.2, "level": 1, "seed": 0}, "a": [[0, 4]]},
     "c5fc6c06e6645ac57b682199ba7f3c69d42b1e2342e515ee3191ed5fcf99563b"),
    # the report examines only the tops that leave the collar of B
    ("relative",
     {"complex": "strip(3)",
      "distribution": {"type": "constant", "basis": [[1.0 / math.sqrt(2.0),
                                                      1.0 / math.sqrt(2.0)]]},
      "config": {"gamma": 0.2, "seed": 0}, "b": [[3, 7]], "v_radius": 0.3},
     "d52a8fa95584cb5299bad8818d6fcae06cbf072282ea81e277f1b2414473b3c0"),
]


def test_small_benchmark_bundles_are_pinned_byte_for_byte(tmp_path):
    got = []
    for i, (mode, scenario, _) in enumerate(BUNDLE_PINS):
        path, out = tmp_path / f"scenario-{i}.json", tmp_path / f"bundle-{i}.json"
        path.write_text(json.dumps(scenario))
        assert main(["jiggle", str(path), "--mode", mode, str(out)]) == 0
        got.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert got == [pin for _, _, pin in BUNDLE_PINS]


# ---------------------------------------------------------------------------
# stacked field planes in the pipelines
# ---------------------------------------------------------------------------

def reference_plane_drift(child, images, xi):
    """The per-edge loop ``_plane_drift`` replaced: one plane per vertex and
    one ``d_proj`` per edge."""
    if xi.kind == "constant":
        return 0.0
    planes = [xi.plane_at(p) for p in images]
    worst = 0.0
    for u, w in child.simplices_of_dim(1):
        worst = max(worst, d_proj(planes[u], planes[w]))
    return worst


def reference_edge_oscillation(fmap, complex_, images0, xi, radius):
    """The per-probe loop ``_edge_oscillation`` replaced."""
    if xi.kind == "constant":
        return 0.0
    worst = 0.0
    for top in complex_.top_simplices:
        dom, img = complex_.coords(top), images0[list(top)]
        i, j = max(itertools.combinations(range(len(top)), 2),
                   key=lambda ij: np.linalg.norm(img[ij[0]] - img[ij[1]]))
        length = float(np.linalg.norm(img[i] - img[j]))
        steps = min(engine.OSC_PROBE_CAP, max(1, math.ceil(length / radius)))
        pts = dom[i] + np.outer(np.linspace(0.0, 1.0, steps + 1), dom[j] - dom[i])
        planes = [xi.plane_at(q) for q in fmap.evaluate_batch(pts, hint=tuple(top))]
        for a, b in zip(planes, planes[1:]):
            worst = max(worst, d_proj(a, b))
    return worst


@pytest.mark.parametrize("case", ["rotor", "fast-rotor", "twist", "contact", "constant"])
def test_stacked_drift_and_oscillation_equal_the_loops(case):
    rng = np.random.default_rng(31)
    if case == "twist":
        complex_, xi = unit_square_grid(2), vertical_twist()
    else:
        complex_ = box_grid(1)
        xi = {"rotor": planar_rotor(1e-4), "fast-rotor": planar_rotor(3.0),
              "contact": contact_like(), "constant": HORIZONTAL_3D}[case]
    child, _ = crystalline_subdivide(complex_, 1)
    images = child.vertices + 0.05 * rng.standard_normal(child.vertices.shape)
    drift = engine._plane_drift(child, engine._field_planes(xi, images), xi)
    assert drift == reference_plane_drift(child, images, xi)
    assert (drift > 0) == (case != "constant")
    fmap = PLMap(child, images)
    for radius in (0.5, 0.01):
        assert engine._edge_oscillation(fmap, child, images, xi, radius) == \
            reference_edge_oscillation(fmap, child, images, xi, radius)


def test_plane_drift_raises_the_error_of_the_first_failing_end():
    child, _ = crystalline_subdivide(unit_square_grid(1), 1)
    traps = {3: "three", 1: "one"}

    def at(p):
        for v, name in traps.items():
            if p.tobytes() == child.vertices[v].tobytes():
                raise ValueError(name)
        return Plane(np.array([[0.6, 0.8]]))

    xi = Distribution(2, 1, "builtin", at)
    first = next(e for e in child.simplices_of_dim(1) if set(e) & set(traps))
    want = traps[next(v for v in first if v in traps)]
    with pytest.raises(ValueError, match=want):
        engine._plane_drift(child, engine._field_planes(xi, child.vertices), xi)


def test_a_rotor_run_builds_at_most_one_plane_per_vertex(monkeypatch):
    """The report, the drift and the induction's foliations take the field
    as stacks of bases: a rotor run builds a Plane only for each distinct
    foliation plane of the induction, not one per probe."""
    built = [0]
    init = Plane.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    box = box_grid(1)
    xi = planar_rotor(1e-4)
    cfg = JigglingConfig(gamma=0.2, level=1, seed=0)
    monkeypatch.setattr(Plane, "__init__", counted)
    out = jiggle_euclidean(PLMap.identity(box), box, xi, cfg)
    assert out.report.passed and out.moved_count > 0
    assert 0 < built[0] <= out.out_complex.num_vertices
