import itertools
import math
import types

import numpy as np
import pytest

from jigglekit import complexes
from jigglekit.cli import box_grid, unit_square_grid
from jigglekit.complexes import (
    barycentric_coordinates,
    barycentric_subdivide,
    build_complex,
    crystalline_subdivide,
    point_to_affine_span,
    simplex_volume,
)
from jigglekit.engine import _image_radii, _jacobian_amplification
from jigglekit.errors import DegenerateSimplex, DomainMismatch
from jigglekit.plmaps import (
    SAMPLE_DEPTH,
    PLMap,
    SampledMap,
    _common_refinement,
    _distances,
    complex_subdivides,
    distance,
    is_piecewise_embedding,
    linearize,
)
from jigglekit.transversality import barycentric_lattice
from test_complexes import reference_containing_top_simplex
from test_engine import TETRAHEDRON, wedge_pair


def square():
    return unit_square_grid(1)


def wavy(domain):
    """(x, y) -> (sin pi x, x y) with its analytic Jacobian."""
    return SampledMap(
        domain,
        lambda P: np.stack([np.sin(np.pi * P[:, 0]), P[:, 0] * P[:, 1]], axis=1),
        jacobian=lambda p: np.array([[np.pi * math.cos(np.pi * p[0]), 0.0],
                                     [p[1], p[0]]]),
    )


def test_identity_plmap_evaluates_to_inputs():
    sq = square()
    f = PLMap.identity(sq)
    for p in ([0.25, 0.25], [1.0, 0.0], [0.5, 0.5]):
        np.testing.assert_allclose(f.evaluate_batch([p])[0], p, atol=1e-12)


def test_plmap_rejects_wrong_image_count():
    sq = square()
    with pytest.raises(DomainMismatch):
        PLMap(sq, np.zeros((3, 2)))


def test_distance_needs_a_domain_and_one_volume():
    nowhere = types.SimpleNamespace(domain=None)
    with pytest.raises(DomainMismatch, match="neither map carries a domain complex"):
        distance(nowhere, nowhere)
    small = build_complex(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    large = build_complex(2, [(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
    with pytest.raises(DomainMismatch, match="domains cover different volume: 0.5 vs 2$"):
        distance(PLMap.identity(small), PLMap.identity(large))


def test_affine_maps_linearize_exactly():
    sq = square()
    mat = np.array([[2.0, 0.3], [-0.4, 1.1]])
    aff = SampledMap(sq, lambda P: P @ mat + np.array([5.0, -1.0]))
    g, child, _ = linearize(aff, sq, 2)
    assert distance(aff, g, order=0) < 1e-12
    assert distance(aff, g, order=1) < 1e-6  # finite-difference Jacobian noise


def test_linearize_of_a_plmap_on_the_complex_is_exact():
    """Child images are the exact support combinations of the stored images,
    the same arithmetic that places the child vertices."""
    K = unit_square_grid(2)
    g, child, _ = linearize(PLMap.identity(K), K, 3)
    np.testing.assert_array_equal(g.images, child.vertices)


def test_linearization_error_frozen_value():
    sq = square()
    f = wavy(sq)
    g, child, _ = linearize(f, sq, 3)
    assert len(child.top_simplices) == 2 * 4 ** 3
    assert distance(f, g, order=0) == pytest.approx(0.017173038226717934, rel=1e-9)
    assert distance(f, g, order=1) == pytest.approx(0.6388335858930603, rel=1e-9)


def test_linearization_error_decays_like_levels():
    """C0 error drops by about 4 per level, C1 by about 2."""
    sq = square()
    f = wavy(sq)
    errs = {}
    for lv in (3, 4):
        g, _, _ = linearize(f, sq, lv)
        errs[lv] = (distance(f, g, 0), distance(f, g, 1))
    assert 3.2 < errs[3][0] / errs[4][0] < 4.8
    assert 1.6 < errs[3][1] / errs[4][1] < 2.4


def test_distance_between_identity_and_translate():
    sq = square()
    ident = PLMap.identity(sq)
    shifted = PLMap(sq, sq.vertices + np.array([0.3, -0.4]))
    assert distance(ident, shifted, order=0) == pytest.approx(0.5)
    # equal Jacobians: the derivative term adds nothing
    assert distance(ident, shifted, order=1) == pytest.approx(0.5)


def test_is_piecewise_embedding_identity_and_fold():
    sq = square()
    assert is_piecewise_embedding(PLMap.identity(sq))
    # sending (0,1) to (1,-1) folds the two triangles onto each other
    fold = PLMap(sq, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -1.0], [1.0, 1.0]]))
    assert not is_piecewise_embedding(fold)


def test_is_piecewise_embedding_catches_boundary_fold():
    """A flap bent back over its neighbor shares no interior with it, but the
    map still fails to embed along the shared boundary."""
    K = build_complex(2, [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0)],
                      [(0, 1, 2), (0, 1, 3)])
    flipped = PLMap(K, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.5]]))
    assert not is_piecewise_embedding(flipped)


def test_sampled_map_finite_difference_jacobian():
    sq = square()
    f = SampledMap(sq, lambda P: np.stack([P[:, 0] ** 2, P[:, 1]], axis=1))
    jac = f.derivative_at(np.array([0.5, 0.2]), scale=1.0)
    np.testing.assert_allclose(jac, [[1.0, 0.0], [0.0, 1.0]], atol=1e-5)


def test_sampled_map_batches_agree_with_point_evaluation():
    """A point evaluator handed a batch of as many points as it has output
    coordinates returns an array of the right shape and wrong values."""
    sq = square()
    point = SampledMap(sq, lambda p: np.array([p[0], p[1] + 0.5 * p[0] ** 2]))
    rows = SampledMap(
        sq, lambda P: np.stack([P[:, 0], P[:, 1] + 0.5 * P[:, 0] ** 2], axis=1))
    pts = np.array([[0.5, 0.0], [0.5, 1.0], [0.2, 0.7]])
    for m in (1, 2, 3):
        want = np.array([[x, y + 0.5 * x ** 2] for x, y in pts[:m]])
        np.testing.assert_allclose(point.evaluate_batch(pts[:m]), want, rtol=1e-12)
        np.testing.assert_allclose(rows.evaluate_batch(pts[:m]), want, rtol=1e-12)
    assert point.target_dim == rows.target_dim == 2


def test_complex_subdivides_accepts_refinements_only():
    sq = square()
    child, _ = crystalline_subdivide(sq, 2)
    assert complex_subdivides(sq, child)
    other = build_complex(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert not complex_subdivides(sq, other)


# ---------------------------------------------------------------------------
# the stacked passes against the per-cell loops they replaced
# ---------------------------------------------------------------------------

def reference_complex_subdivides(parent, child, tol=1e-9):
    """``complex_subdivides`` as a scan over (cell, parent top) pairs: a
    cell's carrier is the first top that holds its centroid (to ``tol``)
    and each of its vertices (defect ``tol``, coordinates down to -1e-7),
    and each top of positive volume must equal its cells' volume sum to
    1e-6 of it."""
    if parent.ambient_dim != child.ambient_dim:
        return False
    sums = {s: 0.0 for s in parent.top_simplices}
    for cell in child.top_simplices:
        pts = child.coords(cell)
        carrier = None
        for s in parent.top_simplices:
            b, defect = barycentric_coordinates(parent.coords(s), pts.mean(axis=0))
            if defect <= tol and float(np.min(b)) >= -tol and all(
                    dd <= tol and float(np.min(bb)) >= -1e-7
                    for bb, dd in (barycentric_coordinates(parent.coords(s), p)
                                   for p in pts)):
                carrier = s
                break
        if carrier is None:
            return False
        sums[carrier] += simplex_volume(pts)
    return all(abs(sums[s] - vol) <= 1e-6 * vol
               for s in parent.top_simplices
               if (vol := simplex_volume(parent.coords(s))) > 0)


def _square_diagonals():
    """The unit square cut along one diagonal, and along the other."""
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return (build_complex(2, corners, [(0, 1, 3), (0, 2, 3)]),
            build_complex(2, corners, [(0, 1, 2), (1, 2, 3)]))


def _crystalline(parent, level, drop=0):
    """``parent`` and its level-``level`` crystalline refinement, less its
    first ``drop`` cells."""
    child, _ = crystalline_subdivide(parent, level)
    return parent, build_complex(child.ambient_dim, child.vertices,
                                 child.top_simplices[drop:], validate=False)


def _pushed_out(parent, level):
    """``parent`` and its level-``level`` crystalline refinement with one
    vertex of the bottom edge (not a corner) pushed below the parent."""
    child, _ = crystalline_subdivide(parent, level)
    images = child.vertices.copy()
    vid = next(v for v, (x, y) in enumerate(images) if y == 0.0 and 0.0 < x < 1.0)
    images[vid, 1] = -0.05
    return parent, build_complex(2, images, child.top_simplices, validate=False)


def _in_r3(parent):
    """``parent`` and a copy of it in the plane z = 0 of R^3."""
    return parent, build_complex(
        3, np.column_stack([parent.vertices, np.zeros(parent.num_vertices)]),
        parent.top_simplices)


R3_TRIANGLE = build_complex(3, [(0, 0, 0), (2, 0, 1), (0, 3, 1)], [(0, 1, 2)])
TET = build_complex(3, TETRAHEDRON, [(0, 1, 2, 3)])

SUBDIVISION_CASES = {   # name: (parent and child, verdict)
    "crystalline 1": (lambda: _crystalline(unit_square_grid(2), 1), True),
    "crystalline 2": (lambda: _crystalline(unit_square_grid(2), 2), True),
    "crystalline 3": (lambda: _crystalline(unit_square_grid(2), 3), True),
    "barycentric": (lambda: (unit_square_grid(2), barycentric_subdivide(unit_square_grid(2))[0]),
                    True),
    "barycentric tetrahedron": (lambda: (TET, barycentric_subdivide(TET)[0]), True),
    "fan": (wedge_pair, True),
    "missing cell": (lambda: _crystalline(square(), 1, drop=1), False),
    "vertex outside": (lambda: _pushed_out(square(), 2), False),
    "cell across two tops": (_square_diagonals, False),
    "other ambient dimension": (lambda: _in_r3(square()), False),
    "triangle in R^3": (lambda: _crystalline(R3_TRIANGLE, 2), True),
    "triangle in R^3, off its plane": (lambda: (R3_TRIANGLE, build_complex(
        3, R3_TRIANGLE.vertices + [0.0, 0.0, 0.1], [(0, 1, 2)])), False),
    # off by more than tol, but close enough for the point location to
    # name a top
    "triangle in R^3, 1e-7 off its plane": (lambda: (R3_TRIANGLE, build_complex(
        3, R3_TRIANGLE.vertices + [0.0, 0.0, 1e-7], [(0, 1, 2)])), False),
}


@pytest.mark.parametrize("case", SUBDIVISION_CASES)
def test_complex_subdivides_agrees_with_the_pair_scan(case):
    make, verdict = SUBDIVISION_CASES[case]
    parent, child = make()
    assert complex_subdivides(parent, child) is reference_complex_subdivides(parent, child) \
        is verdict


def test_complex_subdivides_locates_each_child_vertex_once(monkeypatch):
    """At level 3 the check makes at most one ``barycentric_coordinates``
    call per child vertex (289); the pair scan made 3,840."""
    calls = []

    def counted(*args, _real=complexes.barycentric_coordinates):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(complexes, "barycentric_coordinates", counted)
    grid = unit_square_grid(2)
    child, _ = crystalline_subdivide(grid, 3)
    assert complex_subdivides(grid, child)
    assert 0 < len(calls) <= child.num_vertices == 289


def reference_distance(f, g, order=0):
    """``distance`` as it ran before the size groups: one top at a time,
    PLMaps through the slope of one simplex (a pinv each)."""
    fine = _common_refinement(f, g)

    def slope(m, simplex):
        dom, img = m.domain.coords(simplex), m.image_coords(simplex)
        return (img[1:] - img[0]).T @ np.linalg.pinv((dom[1:] - dom[0]).T)

    def values(m, pts, simplex, own):
        if own:
            return barycentric_lattice(len(simplex), SAMPLE_DEPTH) @ m.image_coords(simplex)
        return m.evaluate_batch(pts)

    def derivatives(m, pts, simplex, own, scale):
        if isinstance(m, PLMap):
            if own:
                return [slope(m, simplex)]
            return [slope(m, m.domain._locate(pts.mean(axis=0))[0][0])]
        return [m.derivative_at(p, scale=scale) for p in pts]

    worst = 0.0
    for simplex in fine.top_simplices:
        dom = fine.coords(simplex)
        pts = barycentric_lattice(len(simplex), SAMPLE_DEPTH) @ dom
        f_own = isinstance(f, PLMap) and f.domain is fine
        g_own = isinstance(g, PLMap) and g.domain is fine
        d0 = float(np.max(np.linalg.norm(
            values(f, pts, simplex, f_own) - values(g, pts, simplex, g_own), axis=1)))
        val = d0
        if order >= 1:
            scale = float(np.max(np.linalg.norm(dom - dom[0], axis=1)))
            fj = derivatives(f, pts, simplex, f_own, scale)
            gj = derivatives(g, pts, simplex, g_own, scale)
            if len(fj) == 1 and len(gj) > 1:
                fj = fj * len(gj)
            if len(gj) == 1 and len(fj) > 1:
                gj = gj * len(fj)
            val = d0 + max(float(np.linalg.norm(a - c, 2)) for a, c in zip(fj, gj))
        worst = max(worst, val)
    return worst


def reference_amplification(child):
    """``engine._jacobian_amplification`` as one SVD per top."""
    worst = 0.0
    for top in child.top_simplices:
        if len(top) < 2:
            continue
        pts = child.coords(top)
        smin = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)[-1]
        worst = max(worst, 2.0 * math.sqrt(len(top) - 1) / float(smin))
    return worst


def reference_image_radii(child, images):
    """Smallest rmin and largest rmax, one cell at a time."""
    rmin, rmax = np.inf, 0.0
    for top in child.top_simplices:
        if len(top) < 2:
            continue
        pts = images[list(top)]
        for i, j in itertools.combinations(range(len(pts)), 2):
            rmax = max(rmax, float(np.linalg.norm(pts[i] - pts[j])))
        for i in range(len(pts)):
            rmin = min(rmin, point_to_affine_span(pts[i], np.delete(pts, i, axis=0)))
    return float(rmin), float(rmax)


def assert_distances_match(f, g):
    for order in (0, 1):
        assert distance(f, g, order) == reference_distance(f, g, order)
        assert distance(g, f, order) == reference_distance(g, f, order)


@pytest.mark.parametrize("name", ["tower-4", "box-2"])
def test_stacked_passes_on_jiggled_meshes_equal_the_per_cell_loops(jiggled_meshes, name):
    """Bit for bit, with ==: a numpy whose stacked pinv, SVD or products
    stop matching the per-cell calls fails here rather than moving the
    pinned d_c0/d_c1, eta and margin target of a bundle."""
    child, images = jiggled_meshes[name]
    jiggled, ident = PLMap(child, images), PLMap.identity(child)
    assert_distances_match(ident, jiggled)
    assert _jacobian_amplification(child) == reference_amplification(child)
    assert _image_radii(child, images) == reference_image_radii(child, images)
    assert is_piecewise_embedding(jiggled)


@pytest.mark.parametrize("grid, level", [(unit_square_grid(1), 2), (box_grid(1), 1)],
                         ids=["square-2", "box-1"])
@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2])
def test_stacked_distances_equal_the_per_cell_loop(grid, level, scale):
    """Random PLMaps on the refinement, a PLMap on the coarse complex and a
    sampled map with a finite-difference Jacobian, in every pairing the
    engine makes."""
    rng = np.random.default_rng(int(-math.log10(scale)) + 7 * level)
    child, _ = crystalline_subdivide(grid, level)
    n = grid.ambient_dim

    def noisy(K):
        return scale * (K.vertices + 0.05 * rng.standard_normal(K.vertices.shape))

    own = PLMap(child, noisy(child))
    other = PLMap(child, noisy(child))
    coarse = PLMap(grid, noisy(grid))
    sampled = SampledMap(grid, lambda P: scale * (P + 0.1 * np.sin(3.0 * P[:, ::-1])))
    assert sampled.target_dim == coarse.target_dim == n
    for f in (other, coarse, sampled):
        assert_distances_match(f, own)
    assert _jacobian_amplification(child) == reference_amplification(child)


@pytest.mark.parametrize("grid, level", [(unit_square_grid(1), 2), (box_grid(1), 1)],
                         ids=["square-2", "box-1"])
def test_a_point_evaluator_gives_the_per_point_distances_bit_for_bit(grid, level):
    """An evaluator that takes one point at a time (``math`` refuses
    arrays), with finite differences and with a Jacobian of its own: the
    stacked distances equal the per-cell loop that calls ``derivative_at``
    point by point."""
    child, _ = crystalline_subdivide(grid, level)
    rng = np.random.default_rng(level)
    g = PLMap(child, child.vertices + 0.01 * rng.standard_normal(child.vertices.shape))

    def bend(p):
        return np.array([p[0] + 0.1 * math.sin(3.0 * p[-1])] + list(p[1:]))

    def bend_jacobian(p):
        jac = np.eye(len(p))
        jac[0, -1] += 0.3 * math.cos(3.0 * p[-1])
        return jac

    for f in (SampledMap(grid, bend), SampledMap(grid, bend, jacobian=bend_jacobian)):
        assert not f._vectorized
        assert_distances_match(f, g)


def triangle_edge_vertex():
    """Tops of three sizes: a triangle, a dangling edge, an isolated vertex."""
    return build_complex(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 1.0), (3.0, 3.0)],
                         [(0, 1, 2), (1, 3), (4,)])


def test_tops_of_mixed_sizes_are_grouped_by_size():
    K = triangle_edge_vertex()
    assert [len(t) for t in K.top_simplices] == [3, 2, 1]
    rng = np.random.default_rng(5)
    g = PLMap(K, K.vertices + 0.01 * rng.standard_normal(K.vertices.shape))
    assert is_piecewise_embedding(g)
    assert _image_radii(K, g.images) == reference_image_radii(K, g.images)
    assert _jacobian_amplification(K) == reference_amplification(K)
    sampled = SampledMap(K, lambda P: P + 0.01 * np.sin(P))
    for f in (PLMap.identity(K), sampled):
        assert_distances_match(f, g)


def test_tops_of_mixed_sizes_reject_flat_and_non_finite_images():
    K = triangle_edge_vertex()
    collinear = K.vertices.copy()
    collinear[2] = (2.0, 0.0)  # the triangle lies on the x axis
    assert not is_piecewise_embedding(PLMap(K, collinear))
    with pytest.raises(DegenerateSimplex):
        _image_radii(K, collinear)
    for vid in (0, 3, 4):  # in the triangle, the edge, the lone vertex
        for bad in (np.nan, np.inf):
            images = K.vertices.copy()
            images[vid, 0] = bad
            assert is_piecewise_embedding(PLMap(K, images)) is False


def reference_evaluate(f, point):
    """``PLMap.evaluate`` before batched location: the scan of every top,
    then one more lstsq for the coordinates."""
    p = np.asarray(point, dtype=float)
    simplex = reference_containing_top_simplex(f.domain, p)
    b, _ = barycentric_coordinates(f.domain.coords(simplex), p)
    return b @ f.image_coords(simplex)


def test_evaluate_batch_equals_the_per_point_scan_bit_for_bit():
    rng = np.random.default_rng(31)
    fine, _ = crystalline_subdivide(unit_square_grid(2), 2)
    f = PLMap(fine, rng.standard_normal((fine.num_vertices, 3)))
    lo, hi = fine.vertices.min(axis=0), fine.vertices.max(axis=0)
    points = np.vstack([fine.vertices, rng.uniform(lo, hi, size=(200, 2))])
    want = np.array([reference_evaluate(f, p) for p in points])
    assert f.evaluate_batch(points).tobytes() == want.tobytes()
    coarse = unit_square_grid(2)
    g, _, _ = linearize(PLMap.identity(fine), coarse, 1)
    want = np.array([reference_evaluate(PLMap.identity(fine), p) for p in g.domain.vertices])
    assert g.images.tobytes() == want.tobytes()


def test_evaluate_batch_takes_each_points_coordinates_once(monkeypatch):
    """Linearizing the identity on level-2 ``unit_square_grid(4)`` onto
    ``unit_square_grid(4)`` at level 2 locates 289 points, each in the
    first top it tries: one lstsq per point, reused for the value (two
    before ``_locate`` returned the coordinates it found)."""
    fine, _ = crystalline_subdivide(unit_square_grid(4), 2)
    f = PLMap.identity(fine)
    solve = np.linalg.lstsq
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    g, child, _ = linearize(f, unit_square_grid(4), 2)
    assert child.num_vertices == len(calls) == 289
    monkeypatch.undo()
    want = np.array([reference_evaluate(f, p) for p in child.vertices])
    assert g.images.tobytes() == want.tobytes()


def test_each_distinct_domain_cell_is_factorized_once(monkeypatch):
    """The 2,048 cells of a level-4 square grid have 11 distinct edge
    matrices: the C1 distance takes a pseudo-inverse of each once, and the
    Jacobian amplification an SVD of each once."""
    child, _ = crystalline_subdivide(unit_square_grid(2), 4)
    assert len(child.top_simplices) == 2048
    rng = np.random.default_rng(26)
    g = PLMap(child, child.vertices + 1e-3 * rng.standard_normal(child.vertices.shape))
    rows = []

    def counted(kernel):
        def call(a, *args, **kwargs):
            rows.append(len(a))
            return kernel(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "pinv", counted(np.linalg.pinv))
    distance(PLMap.identity(child), g, order=0)
    assert rows == []
    distance(PLMap.identity(child), g, order=1)
    assert sum(rows) <= 11
    rows.clear()
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    _jacobian_amplification(child)
    assert sum(rows) <= 11


def test_distance_takes_both_orders_from_one_pass(jiggled_meshes):
    child, images = jiggled_meshes["tower-4"]
    f, g = PLMap.identity(child), PLMap(child, images)
    assert _distances(f, g, c1=True) == (distance(f, g, 0), distance(f, g, 1))
    assert _distances(f, g, c1=False) == (distance(f, g, 0), 0.0)
