import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigglekit import complexes
from jigglekit.cli import box_grid, standard_simplex, unit_square_grid
from jigglekit.complexes import (
    SimplicialComplex,
    _candidate_pairs,
    _first_flat,
    _id_table,
    _lam,
    _sat_group,
    _span_distances,
    barycentric_coordinates,
    barycentric_subdivide,
    build_complex,
    cell_radii,
    closure,
    complex_shape_extremes,
    compose_subdivisions,
    crystalline_subdivide,
    find_interior_overlap,
    link,
    model_classes,
    point_to_affine_span,
    relative_interiors_intersect,
    shape_stats,
    simplex_volume,
    star,
    top_radii,
    vlink,
)
from jigglekit.errors import (
    AmbientMismatch,
    DegenerateSimplex,
    FaceIntersectionViolation,
    PreconditionViolated,
    QueryNotInComplex,
)

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


def shape_numbers(coords):
    """rmin, rmax and lam of one simplex, from the stacked passes."""
    stack = np.asarray(coords, dtype=float)[None]
    (rmin,), (rmax,) = cell_radii(stack)
    return rmin, rmax, _lam(stack)[0]


def test_shape_stats_right_triangle():
    rmin, rmax, lam = shape_numbers([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert rmax == pytest.approx(math.sqrt(2.0))
    assert rmin == pytest.approx(1.0 / math.sqrt(2.0))
    assert lam == pytest.approx(1.0)


def test_shape_stats_corner_tetrahedron():
    rmin, rmax, lam = shape_numbers(np.vstack([np.zeros(3), np.eye(3)]))
    assert rmax == pytest.approx(math.sqrt(2.0))
    assert rmin == pytest.approx(0.577350269189626)
    assert lam == pytest.approx(1.0)


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


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_relative_interior_test_agrees_with_reference_lp(dim):
    """The exact LP against scipy's HiGHS on random pairs, then on pairs of
    the half-integer lattice {0, 1/2, ..., 2}^dim, where many pairs touch
    exactly; degenerate and face-related lattice pairs are skipped."""
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
    verdicts = Counter()
    while sum(verdicts.values()) < 120:
        ka, kb = rng.integers(1, dim + 2, size=2)
        pts = rng.integers(0, 5, size=(ka + kb, dim)) / 2.0
        a, b = pts[:ka], pts[ka:]
        if not _proper_pair(a, b):
            continue
        got = relative_interiors_intersect(a, b)
        disagreements += int(got != _lp_interiors_intersect(a, b))
        verdicts[got] += 1
    assert disagreements == 0
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("dim", [2, 4])
def test_relative_interiors_are_decided_exactly(dim):
    """A sliver of overlap 2**-40 wide, far below any float tolerance,
    counts; two triangles that touch exactly along a segment do not."""
    pad = np.zeros((3, dim - 2))
    a = np.hstack([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], pad])
    sliver = np.hstack([[(1.0 - 2.0 ** -40, 0.0), (2.0, 0.0), (2.0, 1.0)], pad])
    touching = np.hstack([[(0.25, 0.75), (0.75, 0.25), (1.0, 1.0)], pad])
    assert relative_interiors_intersect(a, sliver)
    assert relative_interiors_intersect(sliver, a)
    assert not relative_interiors_intersect(a, touching)
    assert not relative_interiors_intersect(touching, a)


def test_find_interior_overlap_in_r4_sees_a_sliver():
    """In R^N, N > 3, every candidate pair reaches the exact LP, so an
    overlap far below ``tol`` is found; in R^2 the SAT gap certifies the
    same pair as disjoint."""
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    sliver = [(1.0 - 2.0 ** -40, 0.0), (2.0, 0.0), (2.0, 1.0)]
    verts = np.array(tri + sliver)
    assert find_interior_overlap([(0, 1, 2), (3, 4, 5)], verts) is None
    verts = np.hstack([verts, np.zeros((6, 2))])
    assert find_interior_overlap([(0, 1, 2), (3, 4, 5)], verts) == ((0, 1, 2), (3, 4, 5))


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_the_pairwise_test_rejects_non_finite_coordinates(dim, bad):
    verts = np.hstack([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (bad, 0.2)],
                       np.zeros((4, dim - 2))])
    with pytest.raises(PreconditionViolated, match="finite"):
        find_interior_overlap([(0, 1, 2), (1, 2, 3)], verts)
    with pytest.raises(PreconditionViolated, match="finite"):
        relative_interiors_intersect(verts[:3], verts[1:])


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_complex_rejects_non_finite_vertices(bad, validate):
    with pytest.raises(PreconditionViolated, match="vertex 2 has non-finite"):
        build_complex(2, [[0.0, 0.0], [1.0, 0.0], [bad, 1.0]], [(0, 1, 2)],
                      validate=validate)
    with pytest.raises(PreconditionViolated, match="vertex 0 has non-finite"):
        SimplicialComplex(1, [[bad]], [(0,)])


@pytest.mark.parametrize("dim", [2, 4])
def test_relative_interiors_need_one_width(dim):
    tri = np.vstack([np.zeros(dim), np.eye(dim)[:2]])
    with pytest.raises(AmbientMismatch, match=f"width {dim} and {dim + 1}"):
        relative_interiors_intersect(tri, np.hstack([tri, np.ones((3, 1))]))


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
                _first_flat(*cell_radii(c[None]), [c])
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


def reference_candidates(sims, verts, tol=1e-9):
    """The quadratic box loop the sweep replaced: pairs i < j, in (i, j)
    order, whose padded boxes meet on every axis and neither of which is a
    face of the other."""
    if not sims:
        return []
    coords = [verts[list(s)] for s in sims]
    lo = np.array([np.min(c, axis=0) for c in coords])
    hi = np.array([np.max(c, axis=0) for c in coords])
    pad = tol * max(1.0, float(np.max(hi - lo)))
    sets = [set(s) for s in sims]
    pairs = []
    for i in range(len(sims)):
        overlap = np.all(lo[i] <= hi + pad, axis=1) & np.all(lo <= hi[i] + pad, axis=1)
        for j in np.flatnonzero(overlap[i + 1:]) + i + 1:
            if not (sets[i] <= sets[j] or sets[j] <= sets[i]):
                pairs.append((i, int(j)))
    return pairs


def _random_simplices(rng, dim, lattice):
    """Up to 40 simplices of 1..dim+1 vertices on 12 random vertices; on
    the lattice {0, 1, 2}^dim many boxes tie or coincide, and some simplices
    are listed twice."""
    if lattice:
        verts = rng.integers(0, 3, size=(12, dim)).astype(float)
    else:
        verts = rng.standard_normal((12, dim))
    sims = [tuple(sorted(rng.choice(12, size=k, replace=False).tolist()))
            for k in rng.integers(1, dim + 2, size=rng.integers(2, 41))]
    if lattice:
        sims += sims[:3]
    return sims, verts


def _broad_phase_cases():
    rng = np.random.default_rng(1311)
    cases = [("empty", [], np.zeros((0, 2))),
             ("one-simplex", [(0, 1, 2)], np.eye(3)[:, :2])]
    for dim in (2, 3):
        for lattice in (False, True):
            for n in range(15):
                sims, verts = _random_simplices(rng, dim, lattice)
                cases.append((f"{dim}d-{'lattice' if lattice else 'random'}-{n}",
                              sims, verts))
    grid, _ = crystalline_subdivide(unit_square_grid(2), 3)
    cases.append(("unit-square-grid-2-level-3", grid.all_simplices(), grid.vertices))
    fine, _ = crystalline_subdivide(unit_square_grid(2), 2)
    cases.append(("thin-vertical-strip", fine.all_simplices(),
                  fine.vertices * np.array([1e-3, 1.0])))
    return cases


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_sweep_returns_the_reference_candidates(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(complexes, "_SWEEP_BLOCK", block)
    for name, sims, verts in _broad_phase_cases():
        first, second = _candidate_pairs(*_id_table(sims), verts, 1e-9)
        got = list(zip(first.tolist(), second.tolist()))
        assert got == reference_candidates(sims, verts), name


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


def reference_radii(coords):
    """rmin and rmax the way one cell was measured before the stacked
    pass: np.linalg.norm of each edge, and point_to_affine_span
    from each vertex to its opposite facet."""
    pts = np.asarray(coords, dtype=float)
    rmax = 0.0
    for i, j in itertools.combinations(range(len(pts)), 2):
        rmax = max(rmax, float(np.linalg.norm(pts[i] - pts[j])))
    rmin = np.inf
    for i in range(len(pts)):
        rmin = min(rmin, point_to_affine_span(pts[i], np.delete(pts, i, axis=0)))
    return rmin, rmax


def random_stacks(seed):
    """Stacks of simplices of dimension m = 1..N in R^N, N = 2, 3, at
    scales 1e-4..1e2 and off the origin, each also in a nearly flat
    variant whose last vertex sits 1e-9 (relative) off an edge."""
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        for k in range(2, n + 2):
            for scale in (1e-4, 1e-2, 1.0, 1e2):
                stack = scale * (rng.standard_normal((25, k, n))
                                 + 10.0 * rng.standard_normal(n))
                flat = stack.copy()
                flat[:, -1] = (flat[:, 0] + 0.3 * (flat[:, 1] - flat[:, 0])
                               + 1e-9 * scale * rng.standard_normal((25, n)))
                yield stack
                yield flat


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_radii_equal_the_per_cell_loops(seed):
    """Bit for bit, with ==, cell by cell.  point_to_affine_span is a stack
    of one of the same _span_distances kernel, so this checks that a cell
    gets the same bits alone as in a stack of 25: what keeps eta, margin
    targets and so the jiggled images independent of a workload's size.  A
    numpy whose stacked QR, products or vecdot round differently per stack
    size fails here."""
    for stack in random_stacks(seed):
        rmin, rmax = cell_radii(stack)
        for t, cell in enumerate(stack):
            assert (rmin[t], rmax[t]) == reference_radii(cell)
        one_min, one_max = cell_radii(stack[:1])
        assert (one_min[0], one_max[0]) == (rmin[0], rmax[0])


def test_shape_stats_is_a_stack_of_one():
    """A cell alone gets the loop's radii, and is rejected as flat exactly
    when its rmin is at most 1e-12 rmax; shape_stats gives the same."""
    for stack in random_stacks(3):
        for cell in stack[:3]:
            rmin, rmax = reference_radii(cell)
            assert shape_numbers(cell)[:2] == (rmin, rmax)
            if rmin > 1e-12 * rmax:
                _first_flat(*cell_radii(cell[None]), [cell])
                stats = shape_stats(cell)
                assert (stats.rmin, stats.rmax, stats.lam) == shape_numbers(cell)
            else:
                with pytest.raises(DegenerateSimplex):
                    _first_flat(*cell_radii(cell[None]), [cell])
                with pytest.raises(DegenerateSimplex):
                    shape_stats(cell)


@pytest.mark.parametrize("name", ["tower-4", "box-2"])
def test_top_radii_of_jiggled_meshes_equal_the_per_cell_loops(jiggled_meshes, name):
    child, images = jiggled_meshes[name]
    for coords in (child.vertices, images):
        tops, rmin, rmax = top_radii(child, coords)
        assert tops == list(child.top_simplices)
        for t, top in enumerate(tops):
            assert (rmin[t], rmax[t]) == reference_radii(coords[list(top)])


def test_top_radii_name_the_first_flat_cell():
    K = build_complex(2, [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)],
                      [(0, 1, 2), (1, 3), (4,)])
    tops, rmin, rmax = top_radii(K, K.vertices)
    assert tops == [(0, 1, 2), (1, 3)]
    flat = K.vertices.copy()
    flat[3] = flat[1]
    with pytest.raises(DegenerateSimplex, match=r"rmin=0\.000e\+00"):
        top_radii(K, flat)
    with pytest.raises(DegenerateSimplex):
        build_complex(2, [(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_span_distances_match_point_to_affine_span_bit_for_bit():
    """point_to_affine_span is _span_distances of a stack of one, so each
    point must get the same bits alone as in a stack of up to 40."""
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        coords = rng.normal(size=(int(rng.integers(1, n + 2)), n))
        scale = 10.0 ** rng.uniform(-4, 2)
        points = rng.normal(size=(int(rng.integers(1, 40)), n)) * scale
        got = _span_distances(points, coords)
        assert got.tolist() == [point_to_affine_span(p, coords) for p in points]


# ---------------------------------------------------------------------------
# point location against the scan it replaced
# ---------------------------------------------------------------------------

def reference_containing_top_simplex(K, point, tol=1e-9):
    """The scan before ``_locate``: every top in order, one lstsq each; None
    where the scan raised."""
    p = np.asarray(point, dtype=float)
    best, best_defect = None, np.inf
    for s in K.top_simplices:
        b, defect = barycentric_coordinates(K.coords(s), p)
        worst = max(defect, -min(float(np.min(b)), 0.0))
        if worst < best_defect:
            best, best_defect = s, worst
        if worst <= tol:
            return s
    if best is not None and best_defect <= 1e-6:
        return best
    return None


def _location_cases():
    rng = np.random.default_rng(23)
    square, _ = crystalline_subdivide(unit_square_grid(2), 2)
    box, _ = crystalline_subdivide(box_grid(1), 1)
    mixed = build_complex(2, [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)],
                          [(0, 1, 2), (1, 3), (4,)])
    surface = build_complex(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0.5)],
                            [(0, 1, 2), (1, 2, 3)])
    # a sliver (rmin below 1e-6 rmax) beside a plain triangle
    sliver = build_complex(2, [(0, 0), (1, 0), (0.5, 1e-7), (0.5, -1.0)],
                           [(0, 1, 2), (0, 1, 3)])
    for name, K in (("square-level-2", square), ("box-level-1", box),
                    ("mixed", mixed), ("surface", surface), ("sliver", sliver)):
        n = K.ambient_dim
        lo, hi = K.vertices.min(axis=0), K.vertices.max(axis=0)
        cells = [K.coords(t) for t in K.top_simplices]
        inside = np.array([rng.dirichlet(np.ones(len(c))) @ c
                           for c in (cells[i] for i in rng.integers(len(cells), size=60))])
        nudge = rng.standard_normal((len(K.vertices), n))
        nudge /= np.linalg.norm(nudge, axis=1, keepdims=True)
        points = np.vstack([
            K.vertices,                             # on many tops at once
            (K.vertices[:-1] + K.vertices[1:]) / 2,
            inside,
            K.vertices + 5e-7 * nudge,              # between tol and 1e-6 off
            K.vertices + 1e-4 * nudge,
            rng.uniform(lo - 0.5, hi + 0.5, size=(60, n)),
        ])
        yield name, K, points


LOCATION_CASES = list(_location_cases())


@pytest.mark.parametrize("name, K, points", LOCATION_CASES,
                         ids=[name for name, _, _ in LOCATION_CASES])
def test_locate_picks_the_scans_top(name, K, points):
    want = [reference_containing_top_simplex(K, p) for p in points]
    assert None in want and len(set(want) - {None}) > 1
    found = [i for i, w in enumerate(want) if w is not None]
    located = K._locate(points[found])
    assert [t for t, _, _ in located] == [want[i] for i in found], name
    for i, (t, b, defect) in zip(found, located):
        coords, off = barycentric_coordinates(K.coords(t), points[i])
        assert (b.tobytes(), defect) == (coords.tobytes(), off)
    for i, w in enumerate(want):
        if w is None:
            with pytest.raises(QueryNotInComplex, match="is not in the complex"):
                K._locate(points[i])
        else:
            assert K._locate(points[i])[0][0] == w


# ---------------------------------------------------------------------------
# the face tables against the loops they replaced
# ---------------------------------------------------------------------------

def reference_tables(num_vertices, top_simplices):
    """``_simplices``, ``_membership``, ``_tops`` and the ``_incident``
    table as the constructor built them with ``itertools.combinations``
    into Python sets."""
    by_dim = {}
    for simplex in top_simplices:
        s = tuple(sorted(simplex))
        if len(set(s)) != len(s):
            raise FaceIntersectionViolation(f"repeated vertex in simplex {simplex}")
        if s and (s[0] < 0 or s[-1] >= num_vertices):
            raise QueryNotInComplex(f"vertex id out of range in {simplex}")
        for r in range(1, len(s) + 1):
            for face in itertools.combinations(s, r):
                by_dim.setdefault(r - 1, set()).add(face)
    simplices = {d: tuple(sorted(faces)) for d, faces in sorted(by_dim.items())}
    membership = {s for faces in simplices.values() for s in faces}
    tops, covered = [], set()
    for d in sorted(simplices, reverse=True):
        for s in simplices[d]:
            if s in covered:
                continue
            tops.append(s)
            for r in range(1, len(s)):
                covered.update(itertools.combinations(s, r))
    incident = {}
    for d in sorted(simplices):
        for s in simplices[d]:
            for v in s:
                incident.setdefault(v, []).append(s)
    return (simplices, membership, tuple(sorted(tops, key=lambda s: (-len(s), s))),
            {v: tuple(ss) for v, ss in incident.items()})


def _table_cases():
    rng = np.random.default_rng(7)
    cases = [(K.num_vertices, list(K.top_simplices)) for K in (
        unit_square_grid(3), box_grid(1), crystalline_subdivide(box_grid(1), 2)[0],
        barycentric_subdivide(unit_square_grid(2))[0], standard_simplex(4))]
    for _ in range(30):
        n = int(rng.integers(1, 12))
        tops = [tuple(rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)),
                                 replace=False).tolist())
                for _ in range(int(rng.integers(0, 9)))]
        cases.append((n, tops + tops[:2] + [()]))   # repeats, faces, empty
    return cases


@pytest.mark.parametrize("n, tops", _table_cases())
def test_face_tables_equal_the_loops(n, tops):
    K = SimplicialComplex(2, np.zeros((n, 2)), tops)
    simplices, membership, top_list, incident = reference_tables(n, tops)
    assert K._simplices == simplices and list(K._simplices) == list(simplices)
    assert all(type(v) is int for s in K.all_simplices() for v in s)
    assert K._membership == membership
    assert K.top_simplices == top_list
    assert {v: K._incident(v) for v in range(n) if K._incident(v)} == incident
    for d, faces in simplices.items():
        assert K._face_ids(d).tolist() == [list(s) for s in faces]


def void_row_face_tables(simplices, num_vertices):
    """``_face_tables`` as a loop over the faces, deduplicated by one
    ``np.unique`` of big-endian void rows (size, then the ids padded with
    0), whose byte order is the numeric one."""
    by_size = {}
    for i, s in enumerate(simplices):
        if len(s):
            by_size.setdefault(len(s), []).append(i)
    width = max(by_size)
    rows, owner, proper = [], [], []
    for k in sorted(by_size):
        for r in range(1, k + 1):
            for i in by_size[k]:
                for face in itertools.combinations(sorted(simplices[i]), r):
                    rows.append([r, *face] + [0] * (width - r))
                    owner.append(i)
                    proper.append(r < k)
    rows = np.array(rows, dtype=">i8")
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    covered = np.zeros(len(first), dtype=bool)
    covered[inverse[np.array(proper)]] = True
    unique = rows[first].astype(np.int64)
    tables, tops = {}, []
    for r in sorted(set(unique[:, 0].tolist()), reverse=True):
        sel = unique[:, 0] == r
        tables[r - 1] = unique[sel, 1:r + 1]
        tops += map(tuple, tables[r - 1][~covered[sel]].tolist())
    return dict(sorted(tables.items())), tuple(tops), (inverse, np.array(owner))


# ids up to 10**6 in simplices of four: 10**24 > 2**63 takes Python-int keys
WIDE = (10 ** 6, [(999_999, 3, 500_000, 7), (3, 7, 12), (999_999, 12), (41,)])


@pytest.mark.parametrize("n, tops", [WIDE] + [
    (n, tops) for n, tops in _table_cases() if any(tops)])
def test_face_tables_equal_the_void_row_tables(n, tops):
    """Integer row keys give the tables, tops, order and (face, owner) of
    the void-row sort byte for byte, also where the keys outgrow int64."""
    tables, top_list, (face, owner) = complexes._face_tables(tops, n)
    want_tables, want_tops, (want_face, want_owner) = void_row_face_tables(tops, n)
    assert list(tables) == list(want_tables)
    for d, table in tables.items():
        assert table.dtype == np.int64
        assert table.tobytes() == want_tables[d].tobytes()
    assert top_list == want_tops
    assert face.astype(np.intp).tobytes() == want_face.astype(np.intp).tobytes()
    assert owner.astype(np.intp).tobytes() == want_owner.astype(np.intp).tobytes()


def unique_rows_reference(rows):
    """``np.unique(axis=0)`` on the rows' int64 words: integer values, or
    the bytes of float64 rows."""
    rows = np.asarray(rows)
    words = rows.view(np.int64) if rows.dtype.kind == "f" else rows.astype(np.int64)
    _, first, inverse, counts = np.unique(words, axis=0, return_index=True,
                                          return_inverse=True, return_counts=True)
    return first, inverse.reshape(-1), counts


def payload_nan(payload: int) -> float:
    return float(np.array([0x7FF8_0000_0000_0000 | payload], dtype=np.int64).view(float)[0])


def unique_rows_cases():
    rng = np.random.default_rng(26)
    ids = rng.integers(-1, 12, size=(400, 4))
    ids[rng.random(ids.shape) < 0.3] = -1     # pads
    big = rng.integers(-2 ** 40, 2 ** 40, size=(300, 3))
    big[100:200] = big[:100]                  # repeats past int64 radix keys
    floats = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.inf, -np.inf],
                       [-np.inf, np.inf], [np.nan, 2.0], [payload_nan(1), 2.0],
                       [payload_nan(1), 2.0], [np.nan, 2.0], [-0.0, 1.0], [1e-300, -5e300]])
    return {
        "pads": ids, "signed-wide": big, "empty": np.zeros((0, 3), dtype=np.int64),
        "one": np.array([[7, -1, 3]]), "no-columns": np.zeros((5, 0), dtype=np.int64),
        "no-float-columns": np.zeros((70, 0)),
        "bool": rng.random((50, 6)) < 0.5, "floats": floats,
        "float-lattice": np.round(rng.random((200, 6)) * 4) / 4,
    }


@pytest.mark.parametrize("name", list(unique_rows_cases()))
def test_unique_rows_equal_the_numpy_reference(name):
    rows = unique_rows_cases()[name]
    got = complexes._unique_rows(rows)
    want = unique_rows_reference(rows)
    for a, b in zip(got, want):
        assert a.dtype == np.intp
        assert a.tolist() == b.tolist()


def test_unique_rows_keep_float_bytes_apart():
    """-0.0 and 0.0, and NaNs of two payloads, are four rows; equal bytes
    are one."""
    rows = np.array([[0.0], [-0.0], [np.nan], [payload_nan(3)], [-0.0], [np.nan]])
    first, inverse, counts = complexes._unique_rows(rows)
    assert len(first) == 4
    assert sorted(counts.tolist()) == [1, 1, 2, 2]
    assert inverse[1] == inverse[4] != inverse[0]
    assert inverse[2] == inverse[5] != inverse[3]


def test_unique_rows_fall_back_to_a_lexsort_when_radix_keys_would_overflow(monkeypatch):
    """Small spreads take one int64 key per row; spreads whose product
    passes 2**63 take the lexsort, with the same result."""
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    small = np.array([[5, 0], [4, 9], [5, 0]])
    assert [a.tolist() for a in complexes._unique_rows(small)] == \
        [a.tolist() for a in unique_rows_reference(small)]
    assert not sorts
    wide = np.array([[4, 999_999, 999_999, 999_999, 999_999], [3, 3, 7, 12, 0],
                     [1, 0, 0, 0, 0], [4, 999_999, 999_999, 999_999, 999_999]])
    assert [a.tolist() for a in complexes._unique_rows(wide)] == \
        [a.tolist() for a in unique_rows_reference(wide)]
    assert sorts == [1]


def test_per_distinct_gives_the_direct_bits():
    """A stack with repeated matrices, factorized once per distinct one,
    gives the direct call's bits, at any stack size."""
    rng = np.random.default_rng(27)
    stack = rng.standard_normal((5, 2, 3))[rng.integers(0, 5, size=200)]
    stack[::7] = rng.standard_normal((len(stack[::7]), 2, 3))
    calls = []

    def pinv(e):
        calls.append(len(e))
        return np.linalg.pinv(np.swapaxes(e, 1, 2))

    for size in (1, 48, 200):
        part = stack[:size]
        distinct = len(np.unique(part.reshape(size, 6), axis=0))
        got = complexes._per_distinct(pinv, part)
        assert got.tobytes() == np.linalg.pinv(np.swapaxes(part, 1, 2)).tobytes()
        assert calls[-1] == distinct
    assert distinct < 40


@pytest.mark.parametrize("k, n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])
def test_stacked_barycentric_coordinates_match_the_scalar_ones(k, n):
    rng = np.random.default_rng(10 * k + n)
    coords = rng.normal(size=(20, k, n))
    points = np.einsum("sk,skn->sn", rng.dirichlet(np.ones(k), size=20), coords)
    points[::3] += rng.normal(size=(7, n))          # some off the simplex
    b, defect = complexes._barycentric(coords, points)
    for i in range(20):
        want_b, want_defect = barycentric_coordinates(coords[i], points[i])
        np.testing.assert_allclose(b[i], want_b, rtol=1e-9, atol=1e-9)
        assert defect[i] == pytest.approx(want_defect, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("tops", [
    [(0, 1), (2, 2, 3), (0, 9)], [(0, 1), (0, 9), (2, 2, 3)], [(1, -1)],
    [(0, 1, 2), (3, 4, 3)], [[0, 1, 1]],
])
def test_face_tables_raise_for_the_first_bad_simplex(tops):
    with pytest.raises(Exception) as want:
        reference_tables(5, tops)
    with pytest.raises(type(want.value)) as got:
        SimplicialComplex(2, np.zeros((5, 2)), tops)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the two-stage separating-axis test
# ---------------------------------------------------------------------------

def reference_sat_group(pa, pb, tol):
    """The one-stage kernel: every candidate axis of every pair, as
    ``_sat_group`` computed them before its first stage was split off."""
    m, ka, n = pa.shape
    kb = pb.shape[1]
    scale = np.maximum(1.0, np.maximum(np.abs(pa).max(axis=(1, 2)),
                                       np.abs(pb).max(axis=(1, 2))))
    gap = (tol * scale)[:, None]
    ra, sa = np.triu_indices(ka, 1)
    rb, sb = np.triu_indices(kb, 1)
    base = pa[:, :1] - pb[:, :1]
    edges = np.concatenate([pa[:, sa] - pa[:, ra], pb[:, sb] - pb[:, rb]], axis=1)
    if n == 2:
        normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    else:
        flat = max(ka, kb) <= n
        dirs = np.concatenate([base, edges], axis=1) if flat else edges
        i, j = np.triu_indices(dirs.shape[1], 1)
        normals = np.cross(dirs[:, i], dirs[:, j])
        if flat and i.size:
            w = np.linalg.norm(normals, axis=2).argmax(axis=1)
            widest = normals[np.arange(m), w][:, None]
            normals = np.concatenate([normals, np.cross(widest, dirs)], axis=1)
    axes = np.concatenate([base, edges, normals], axis=1)
    norms = np.linalg.norm(axes, axis=2)
    keep = norms > 1e-14 * scale[:, None]
    axes = axes / np.where(keep, norms, 1.0)[..., None]
    da = np.einsum("mkn,man->mka", pa, axes)
    db = np.einsum("mkn,man->mka", pb, axes)
    a0, a1 = da.min(axis=1), da.max(axis=1)
    b0, b1 = db.min(axis=1), db.max(axis=1)
    strict = (a1 <= b0 - gap) | (b1 <= a0 - gap)
    extent = (a1 - a0 > gap) | (b1 - b0 > gap)
    weak = (a1 <= b0 + gap) | (b1 <= a0 + gap)
    return ((strict | (extent & weak)) & keep).any(axis=1)


def reference_sat_disjoint_many(first, second, ids, sizes, vertex_coords, tol):
    """The one-stage loop: the full axis set on every pair, one batch per
    vertex-count signature."""
    out = np.zeros(len(first), dtype=bool)
    if not len(first) or vertex_coords.shape[1] not in (2, 3):
        return out
    ka, kb = sizes[first], sizes[second]
    for a, b in np.unique(np.stack([ka, kb], axis=1), axis=0):
        ts = np.flatnonzero((ka == a) & (kb == b))
        out[ts] = reference_sat_group(vertex_coords[ids[first[ts], :a]],
                                      vertex_coords[ids[second[ts], :b]], tol)
    return out


def _sat_cases():
    """Random simplices (generic and on a lattice, where many touch), the
    simplices of meshes (touching along shared faces), a planar mesh laid in
    R^3 (coplanar pairs) and the boundary of rotor's level-1 box before and
    after its run."""
    cases = [(name, sims, verts) for name, sims, verts in _broad_phase_cases()
             if len(sims) > 1]
    rng = np.random.default_rng(2024)
    grid, _ = crystalline_subdivide(unit_square_grid(2), 2)
    flat = np.column_stack([grid.vertices, np.zeros(grid.num_vertices)])
    cases.append(("coplanar-grid-in-3d", grid.all_simplices(), flat))
    tilted = flat @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
    cases.append(("tilted-coplanar-grid", grid.all_simplices(), tilted))
    box, _ = crystalline_subdivide(box_grid(1), 1)
    cases.append(("box-level-1", box.all_simplices(), box.vertices))
    cases.append(("jiggled-box", box.all_simplices(),
                  box.vertices + 0.02 * rng.standard_normal(box.vertices.shape)))
    from jigglekit.cli import planar_rotor
    from jigglekit.engine import JigglingConfig, jiggle_euclidean
    from jigglekit.plmaps import PLMap
    out = jiggle_euclidean(PLMap.identity(box_grid(1)), box_grid(1), planar_rotor(1e-4),
                           JigglingConfig(gamma=0.2, level=1, seed=0))
    boundary = list(out.out_complex._ball.boundary)
    cases.append(("rotor-boundary-before", boundary, out.out_complex.vertices))
    cases.append(("rotor-boundary-after", boundary, out.plmap.images))
    return cases


def test_two_stage_separating_axes_give_the_one_stage_verdicts():
    seen = Counter()
    for name, sims, verts in _sat_cases():
        ids, sizes = _id_table(sims)
        first, second = _candidate_pairs(ids, sizes, verts, 1e-9)
        got = complexes._sat_disjoint_many(first, second, ids, sizes, verts, 1e-9)
        want = reference_sat_disjoint_many(first, second, ids, sizes, verts, 1e-9)
        assert got.tolist() == want.tolist(), name
        seen["certified"] += int(want.sum())
        seen["left"] += int((~want).sum())
    assert seen["certified"] > 1000 and seen["left"] > 10



def test_axis_norms_are_the_bits_of_linalg_norm():
    rng = np.random.default_rng(2025)
    for shape in [(1, 1, 2), (1, 1, 3), (5, 26, 3), (300, 20, 2), (1470, 7, 3)]:
        vectors = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape[:-1] + (1,))
        vectors[0, 0] = 0.0
        assert complexes._norms(vectors).tobytes() == \
            np.linalg.norm(vectors, axis=-1).tobytes(), shape


def test_axis_crosses_are_the_bits_of_numpy_cross():
    """The cross products the full axes build: of factor pairs gathered from
    the directions, and of the widest normal with each direction."""
    rng = np.random.default_rng(2026)
    for pairs, dirs in [((1, 1), 2), ((6, 3), 3), ((102, 21), 7), ((416, 66), 12)]:
        scale = 10.0 ** rng.uniform(-8, 8, size=pairs + (1,))
        u, v = rng.standard_normal(pairs + (3,)) * scale, rng.standard_normal(pairs + (3,))
        u[0, 0], v[-1, -1] = 0.0, -0.0
        assert complexes._cross(u, v).tobytes() == np.cross(u, v).tobytes(), pairs
        widest = u[:, :1]
        d = rng.standard_normal((pairs[0], dirs, 3))
        assert complexes._cross(widest, d).tobytes() == np.cross(widest, d).tobytes(), pairs


def test_no_pair_left_by_the_axes_skips_the_simplex_index(monkeypatch):
    """The rotor boundary after its run leaves no pair to the LP, so
    ``_in_one_simplex`` is not built; two crossing segments leave one."""
    _, sims, verts = next(case for case in _sat_cases() if case[0] == "rotor-boundary-after")
    calls, in_one = [], complexes._in_one_simplex

    def counted(first, *args):
        calls.append(len(first))
        return in_one(first, *args)

    monkeypatch.setattr(complexes, "_in_one_simplex", counted)
    assert find_interior_overlap(sims, verts) is None
    assert calls == []
    cross = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    assert find_interior_overlap([(0, 1), (2, 3)], cross) == ((0, 1), (2, 3))
    assert calls == [1]


def test_full_axes_run_one_batch_per_largest_simplex(monkeypatch):
    """On rotor's jiggled boundary the cheap axes leave pairs of five
    vertex-count signatures; the full axis set takes them in two batches,
    one per largest simplex size, not one per signature."""
    _, sims, verts = next(case for case in _sat_cases() if case[0] == "rotor-boundary-after")
    calls, sat_group = [], complexes._sat_group

    def counted(pa, pb, tol, cheap=False, **sizes):
        ka, kb = sizes.get("sizes") or ([pa.shape[1]] * len(pa), [pb.shape[1]] * len(pb))
        calls.append((cheap, set(zip(np.asarray(ka).tolist(), np.asarray(kb).tolist()))))
        return sat_group(pa, pb, tol, cheap, **sizes)

    monkeypatch.setattr(complexes, "_sat_group", counted)
    assert find_interior_overlap(sims, verts) is None
    full = [kinds for cheap, kinds in calls if not cheap]
    signatures = set().union(*full)
    assert sum(cheap for cheap, _ in calls) == 1
    assert len(signatures) == 5
    assert len(full) == 2
