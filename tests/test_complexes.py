import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigglekit.cli import standard_simplex, unit_square_grid
from jigglekit.complexes import (
    _sat_group,
    barycentric_subdivide,
    build_complex,
    closure,
    complex_shape_extremes,
    compose_subdivisions,
    crystalline_subdivide,
    find_interior_overlap,
    link,
    model_classes,
    relative_interiors_intersect,
    shape_stats,
    simplex_volume,
    star,
    vlink,
)
from jigglekit.errors import DegenerateSimplex, FaceIntersectionViolation

# frozen counts for the cube-chain subdivision: (tops, vertices) by (m, level)
CRYSTALLINE_COUNTS = {
    (1, 1): (2, 3), (1, 2): (4, 5), (1, 3): (8, 9),
    (2, 1): (4, 6), (2, 2): (16, 15), (2, 3): (64, 45),
    (3, 1): (8, 10), (3, 2): (64, 35), (3, 3): (512, 165),
}


def two_triangles():
    return build_complex(2, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                         [(0, 1, 2), (0, 2, 3)])


def test_simplex_volume_known_shapes():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tet = np.vstack([np.zeros(3), np.eye(3)])
    assert simplex_volume(tri) == pytest.approx(0.5)
    assert simplex_volume(tet) == pytest.approx(1.0 / 6.0)
    assert simplex_volume(np.array([[2.0, 1.0]])) == 0.0  # points carry no volume


def test_shape_stats_right_triangle():
    st_ = shape_stats(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert st_.rmax == pytest.approx(math.sqrt(2.0))
    assert st_.rmin == pytest.approx(1.0 / math.sqrt(2.0))
    assert st_.lam == pytest.approx(1.0)


def test_shape_stats_corner_tetrahedron():
    st_ = shape_stats(np.vstack([np.zeros(3), np.eye(3)]))
    assert st_.rmax == pytest.approx(math.sqrt(2.0))
    assert st_.rmin == pytest.approx(0.577350269189626)
    assert st_.lam == pytest.approx(1.0)


def test_build_complex_rejects_interior_overlap():
    with pytest.raises(FaceIntersectionViolation):
        build_complex(2, [(0, 0), (2, 0), (1, 2), (1, -1), (1, 1)],
                      [(0, 1, 2), (0, 1, 4)])


def test_build_complex_rejects_improper_edge_crossing():
    # two edges crossing in their middles without a shared vertex
    with pytest.raises(FaceIntersectionViolation):
        build_complex(2, [(0, 0), (2, 2), (0, 2), (2, 0)],
                      [(0, 1), (2, 3)])


def test_crystalline_counts_and_volume():
    """Each level multiplies the cell count by 2^m and keeps total volume."""
    for (m, lv), (tops, verts) in CRYSTALLINE_COUNTS.items():
        base = standard_simplex(m)
        child, _ = crystalline_subdivide(base, lv)
        assert len(child.top_simplices) == tops
        assert child.num_vertices == verts
        total = sum(simplex_volume(child.coords(c)) for c in child.top_simplices)
        assert total == pytest.approx(simplex_volume(base.vertices), rel=1e-12)


def test_crystalline_level_zero_is_identity():
    base = standard_simplex(2)
    child, smap = crystalline_subdivide(base, 0)
    assert child.top_simplices == base.top_simplices
    np.testing.assert_array_equal(child.vertices, base.vertices)
    for vid, support in smap.vertex_support.items():
        assert support == ((vid, Fraction(1)),)


def test_crystalline_scaling_laws():
    """rmax halves per level and rmax times lambda stays constant."""
    for m, expected_product in ((2, 2.0), (3, 3.0)):
        base = standard_simplex(m)
        prev = None
        for lv in (1, 2, 3, 4):
            child, _ = crystalline_subdivide(base, lv)
            ext = complex_shape_extremes(child)
            if prev is not None:
                assert prev / ext["max_rmax"] == pytest.approx(2.0, rel=1e-9)
            assert ext["max_rmax_lam"] == pytest.approx(expected_product, rel=1e-6)
            prev = ext["max_rmax"]


def test_model_class_counts():
    assert len(model_classes(standard_simplex(2), 1)) == 2
    assert len(model_classes(standard_simplex(2), 2)) == 2
    assert len(model_classes(standard_simplex(3), 1)) == 5
    assert len(model_classes(standard_simplex(3), 2)) == 6


def test_vertex_link_sizes_stay_bounded():
    for m in (1, 2, 3):
        bound = 2 ** m * (2 ** m - 1)
        for lv in (1, 2, 3):
            child, _ = crystalline_subdivide(standard_simplex(m), lv)
            worst = max(len(vlink(child, v)) for v in range(child.num_vertices))
            assert worst <= bound


def test_barycentric_subdivide_counts():
    child, smap = barycentric_subdivide(standard_simplex(2))
    assert len(child.top_simplices) == 6
    assert child.num_vertices == 7
    parent = standard_simplex(2)
    total = sum(simplex_volume(child.coords(c)) for c in child.top_simplices)
    assert total == pytest.approx(simplex_volume(parent.vertices), rel=1e-12)
    assert set(smap.vertex_support) == set(range(7))


def test_subdivision_supports_are_convex_weights():
    child, smap = crystalline_subdivide(standard_simplex(2), 2)
    for vid in range(child.num_vertices):
        support = smap.vertex_support[vid]
        assert sum(w for _, w in support) == Fraction(1)
        assert all(w > 0 for _, w in support)
        # carried by a vertex, an edge or the whole triangle
        assert 1 <= len({g for g, _ in support}) <= 3
        # the support reconstructs the vertex exactly
        pt = sum(float(w) * child.vertices[0] * 0 + float(w) * standard_simplex(2).vertices[g]
                 for g, w in support)
        np.testing.assert_allclose(pt, child.vertices[vid], atol=1e-12)


def test_compose_subdivisions_matches_two_levels():
    base = standard_simplex(2)
    one, s1 = crystalline_subdivide(base, 1)
    two_direct, s_direct = crystalline_subdivide(base, 2)
    two_steps, s2 = crystalline_subdivide(one, 1)
    combined = compose_subdivisions(s1, s2)
    assert len(two_steps.top_simplices) == len(two_direct.top_simplices)
    for vid in range(two_steps.num_vertices):
        pt = sum(float(w) * base.vertices[g] for g, w in combined.vertex_support[vid])
        np.testing.assert_allclose(pt, two_steps.vertices[vid], atol=1e-12)


def test_star_link_ring_on_two_triangles():
    K = two_triangles()
    st_ = star(K, [(0,)])
    assert (0, 1, 2) in st_ and (0, 2, 3) in st_
    assert (1, 2) in st_  # faces of incident cells are included
    assert link(K, 0) == ((1,), (2,), (3,), (1, 2), (2, 3))
    assert vlink(K, 0) == (1, 2, 3)
    assert vlink(K, 1) == (0, 2)


def test_closure_sorts_faces_by_dimension():
    K = two_triangles()
    cl = closure(K, [(0, 1, 2)])
    assert cl == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def test_find_interior_overlap_reports_offending_pair():
    verts = np.array([
        [0.0, 0.0], [2.0, 0.0], [1.0, 2.0],
        [1.0, 0.5], [3.0, 0.5], [2.0, 2.5],
        [5.0, 5.0], [6.0, 5.0],
    ])
    hit = find_interior_overlap([(0, 1, 2), (3, 4, 5), (6, 7)], verts)
    assert hit is not None
    assert set(hit) == {(0, 1, 2), (3, 4, 5)}


def test_find_interior_overlap_clean_complex():
    K = two_triangles()
    assert find_interior_overlap(list(K.top_simplices), K.vertices) is None


def _lp_interiors_intersect(a, b, eps=1e-10):
    """Independent check via scipy: common point with all weights >= t > 0."""
    from scipy.optimize import linprog

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    ka, kb = a.shape[0], b.shape[0]
    # variables: weights of a, weights of b, t; maximize t
    a_eq = np.zeros((n + 2, ka + kb + 1))
    a_eq[:n, :ka] = a.T
    a_eq[:n, ka:ka + kb] = -b.T
    a_eq[n, :ka] = 1.0
    a_eq[n + 1, ka:ka + kb] = 1.0
    b_eq = np.concatenate([np.zeros(n), [1.0, 1.0]])
    a_ub = np.zeros((ka + kb, ka + kb + 1))
    a_ub[:, :-1] = -np.eye(ka + kb)
    a_ub[:, -1] = 1.0
    res = linprog(np.concatenate([np.zeros(ka + kb), [-1.0]]),
                  A_ub=a_ub, b_ub=np.zeros(ka + kb),
                  A_eq=a_eq, b_eq=b_eq, bounds=(None, None),
                  method="highs")
    return bool(res.status == 0 and -res.fun > eps)


@pytest.mark.parametrize("dim", [2, 3])
def test_relative_interior_test_agrees_with_reference_lp(dim):
    rng = np.random.default_rng(90125 + dim)
    disagreements = 0
    for _ in range(120):
        ka = rng.integers(1, dim + 2)
        kb = rng.integers(1, dim + 2)
        a = rng.uniform(-1, 1, size=(ka, dim))
        b = rng.uniform(-1, 1, size=(kb, dim))
        got = relative_interiors_intersect(a, b)
        want = _lp_interiors_intersect(a, b)
        disagreements += int(got != want)
    assert disagreements == 0


def test_relative_interiors_shared_edge_is_not_an_overlap():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -1.0]])
    assert not relative_interiors_intersect(a, b)
    # but a genuine crossing is
    c = np.array([[0.2, 0.1], [1.2, 0.4], [0.4, 1.3]])
    assert relative_interiors_intersect(a, c)


def _random_pair(rng, dim):
    """Two point sets of 1..dim+1 points: generic, coplanar (z = 0),
    sharing leading vertices, or on the integer lattice {0, 1, 2}^dim."""
    kind = rng.integers(4)
    ka, kb = rng.integers(1, dim + 2, size=2)
    if kind == 3:
        pts = rng.integers(0, 3, size=(ka + kb, dim)).astype(float)
    else:
        pts = rng.standard_normal((ka + kb, dim))
    if kind == 1:
        pts[:, -1] = 0.0
    a, b = pts[:ka], pts[ka:]
    if kind == 2:
        shared = rng.integers(1, min(ka, kb) + 1)
        b[:shared] = a[:shared]
    return a, b


def _proper_pair(a, b):
    """Neither simplex degenerate, and neither a face of the other."""
    for c in (a, b):
        try:
            if len(c) > 1:
                shape_stats(c)
        except DegenerateSimplex:
            return False
    rows_a, rows_b = set(map(tuple, a)), set(map(tuple, b))
    return not (rows_a <= rows_b or rows_b <= rows_a)


@pytest.mark.parametrize("dim", [2, 3])
def test_separating_axes_certify_exactly_the_disjoint_pairs(dim):
    rng = np.random.default_rng(2004 + dim)
    checked = 0
    while checked < 300:
        a, b = _random_pair(rng, dim)
        if not _proper_pair(a, b):
            continue
        checked += 1
        certified = bool(_sat_group(a[None], b[None], 1e-9)[0])
        assert certified == (not relative_interiors_intersect(a, b)), (a, b)


@pytest.mark.parametrize("a, b", [
    # coplanar triangles on either side of a shared edge, no edge along
    # the in-plane normal of the shared one
    ([(0, 0, 0), (1, 0, 0), (0.3, 1, 0)], [(0, 0, 0), (1, 0, 0), (0.6, -1, 0)]),
    # two edges leaving one vertex at an acute angle
    ([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (1, 0.2, 0)]),
    # two parallel edges, overlapping in x
    ([(0, 0, 0), (1, 0, 0)], [(0.5, 0.1, 0), (2, 0.1, 0)]),
    # a vertex beside an edge
    ([(0, 0, 0), (1, 0, 0)], [(0.5, 0.1, 0)]),
], ids=["coplanar-shared-edge", "acute-edges", "parallel-edges", "vertex-by-edge"])
def test_separating_axes_cover_flat_pairs_in_3d(a, b):
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    assert not relative_interiors_intersect(a, b)
    assert _sat_group(a[None], b[None], 1e-9).all()
    assert _sat_group(b[None], a[None], 1e-9).all()


@pytest.mark.parametrize("dim", [2, 3])
def test_find_interior_overlap_matches_an_all_pairs_scan(dim):
    rng = np.random.default_rng(7 * dim)
    lattice = np.array(list(itertools.product(range(3), repeat=dim)), dtype=float)
    outcomes = set()
    for _ in range(60):
        verts = rng.permutation(lattice)[:7]
        sims = sorted({tuple(sorted(rng.choice(7, size=k, replace=False).tolist()))
                       for k in rng.integers(1, dim + 2, size=4)})
        first = next(((s, t) for i, s in enumerate(sims) for t in sims[i + 1:]
                      if not (set(s) <= set(t) or set(t) <= set(s))
                      and relative_interiors_intersect(verts[list(s)], verts[list(t)])),
                     None)
        assert find_interior_overlap(sims, verts) == first, sims
        outcomes.add(first is None)
    assert outcomes == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_volume_is_translation_and_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((3, 2))
    vol = simplex_volume(pts)
    shifted = pts + rng.standard_normal(2)
    assert simplex_volume(shifted) == pytest.approx(vol, rel=1e-9, abs=1e-12)
    perm = rng.permutation(3)
    assert simplex_volume(pts[perm]) == pytest.approx(vol, rel=1e-9, abs=1e-12)


def test_coords_roundtrip():
    K = unit_square_grid(2)
    s = K.top_simplices[0]
    np.testing.assert_array_equal(K.coords(s), K.vertices[list(s)])
