"""The degree test of ``is_piecewise_embedding`` against the pairwise test.

When |K| is a PL n-ball in R^n (n = 2, 3) and the map goes into R^n, the
embedding check compares orientation signs and then looks for overlaps
among the boundary simplices only; every other input runs
``find_interior_overlap`` on all simplices.  These tests compare the two on
seeded single-vertex moves, pin the maps the degree test must reject, the
complexes it must leave to the pairwise test, and the exact signs.
"""

import itertools
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest

from jigglekit import complexes, plmaps
from jigglekit.cli import box_grid, standard_simplex, strip, unit_square_grid
from jigglekit.complexes import (
    _orientations,
    build_complex,
    closure,
    crystalline_subdivide,
    find_interior_overlap,
    top_radii,
)
from jigglekit.engine import JigglingConfig, jiggle_euclidean
from jigglekit.errors import DegenerateSimplex
from jigglekit.grassmann import Plane
from jigglekit.plmaps import PLMap, _embedding_failure, is_piecewise_embedding
from jigglekit.transversality import Distribution


def pairwise_embedding(f: PLMap, tol: float = 1e-9) -> bool:
    """The check before the degree test: the same gates, then every pair."""
    if not np.isfinite(f.images).all():
        return False
    try:
        _, rmin, rmax = top_radii(f.domain, f.images)
    except DegenerateSimplex:
        return False
    if np.any(rmin <= tol * rmax):
        return False
    return find_interior_overlap(f.domain.all_simplices(), f.images, tol) is None


def grid_minus(n: int, holes) -> complexes.SimplicialComplex:
    """An n x n grid of unit squares, two triangles each, without ``holes``."""
    verts = [(float(i), float(j)) for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            if (i, j) in holes:
                continue
            a = j * (n + 1) + i
            c = a + n + 1
            tris += [(a, a + 1, c + 1), (a, c + 1, c)]
    used = sorted({v for t in tris for v in t})
    new = {v: k for k, v in enumerate(used)}
    return build_complex(2, [verts[v] for v in used],
                         [tuple(new[v] for v in t) for t in tris])


def u_shape():
    return grid_minus(3, {(1, 2)})


def annulus():
    return grid_minus(3, {(1, 1)})


def fan_disk(m: int):
    """A regular m-gon around a centre vertex 0."""
    ring = [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m))
            for k in range(m)]
    return build_complex(2, [(0.0, 0.0), *ring],
                         [(0, 1 + k, 1 + (k + 1) % m) for k in range(m)])


@pytest.fixture(scope="module")
def jiggled_tower_level():
    """The jiggled level-2 cell of ``unit_square_grid(2)``, as in a tower."""
    grid = unit_square_grid(2)
    xi = Distribution.constant(Plane(np.eye(2)[:1]))
    out = jiggle_euclidean(PLMap.identity(grid), grid, xi,
                           JigglingConfig(gamma=0.2, level=2))
    return out.out_complex, np.array(out.plmap.images)


def lattice(grid, level, noise=0.0, seed=0):
    child, _ = crystalline_subdivide(grid, level)
    rng = np.random.default_rng(seed)
    return child, child.vertices + noise * rng.standard_normal(child.vertices.shape)


@pytest.mark.parametrize("grid, level", [
    (unit_square_grid(2), 0), (unit_square_grid(2), 1), (strip(3), 1),
    (standard_simplex(2), 1), (standard_simplex(3), 1), (box_grid(1), 0),
    (box_grid(1), 1), (u_shape(), 1), (fan_disk(7), 0)])
def test_ball_test_finds_the_balls_and_their_boundary(grid, level):
    K, _ = crystalline_subdivide(grid, level)
    ball = K._ball
    assert ball is not None and K._ball is ball  # computed once
    n = K.ambient_dim
    facets = Counter(f for t in K.top_simplices
                     for f in closure(K, [t]) if len(f) == n)
    assert set(ball.boundary) == set(closure(K, [f for f, c in facets.items() if c == 1]))
    assert [tuple(t) for t in ball.tops.tolist()] == list(K.top_simplices)
    assert set(ball.signs.tolist()) <= {-1, 1}


def mesh_images(mesh, jiggled_tower_level):
    if mesh == "tower-2":
        return jiggled_tower_level
    if mesh == "box-1":
        return lattice(box_grid(1), 1, noise=0.02, seed=1)
    return lattice(u_shape(), 1)


def seeded_moves(K, images, moves, seed=17):
    """Single-vertex moves from 0.03 to 5 typical edge lengths: ``(vertex,
    moved images)``."""
    rng = np.random.default_rng(seed)
    edges = np.array([images[t[1]] - images[t[0]] for t in K.top_simplices])
    h = float(np.median(np.linalg.norm(edges, axis=1)))
    for _ in range(moves):
        moved = images.copy()
        v = int(rng.integers(K.num_vertices))
        moved[v] += h * 10 ** rng.uniform(-1.5, 0.7) * rng.standard_normal(K.ambient_dim)
        yield v, moved


@pytest.mark.parametrize("mesh, moves", [("tower-2", 120), ("box-1", 16), ("u-1", 80)])
def test_degree_test_agrees_with_the_pairwise_test(jiggled_tower_level, mesh, moves):
    """Seeded single-vertex moves from 0.03 to 5 typical edge lengths: a
    verdict that differs from the pairwise test's fails here.  On these
    seeds (and on 1,500 further moves of each mesh) none does."""
    K, images = mesh_images(mesh, jiggled_tower_level)
    assert K._ball is not None
    kinds = Counter()
    for v, moved in seeded_moves(K, images, moves):
        f = PLMap(K, moved)
        verdict = is_piecewise_embedding(f)
        assert verdict == pairwise_embedding(f), (mesh, v, moved[v])
        reason = _embedding_failure(f)
        assert (reason is None) == verdict
        kinds[reason.split()[0] if reason else "embeds"] += 1
    assert kinds["embeds"] and kinds["top"]  # kept maps and interior folds


def count_lp_calls(monkeypatch):
    calls = []
    real = complexes.relative_interiors_intersect
    monkeypatch.setattr(complexes, "relative_interiors_intersect",
                        lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("m", [4, 5])
def test_faces_of_one_simplex_need_no_lp(monkeypatch, m):
    """Every pair of faces of one nondegenerate simplex meets in their
    common face, so neither validating an m-simplex in R^m nor checking its
    identity map reaches an LP (the SAT certificate covers only R^2, R^3)."""
    calls = count_lp_calls(monkeypatch)
    K = standard_simplex(m)
    assert is_piecewise_embedding(PLMap.identity(K))
    assert not calls


@pytest.mark.parametrize("mesh, moves", [("tower-2", 40), ("box-1", 6), ("u-1", 40),
                                         ("simplex-in-r4", 8)])
def test_dropping_faces_of_one_simplex_keeps_the_pairwise_verdicts(
        monkeypatch, jiggled_tower_level, mesh, moves):
    """The pairwise test with and without the drop of pairs inside one
    nondegenerate listed simplex, on all simplices of the seeded moves
    above (and a 4-simplex squashed flat, whose faces overlap): the same
    first overlapping pair, or None, every time."""
    extra = []
    if mesh == "simplex-in-r4":
        K = standard_simplex(4)
        images = K.vertices
        extra.append((None, images * np.r_[1.0, 1.0, 1.0, 0.0]))  # squashed flat
    else:
        K, images = mesh_images(mesh, jiggled_tower_level)
    sims = K.all_simplices()
    verdicts = set()
    for v, moved in [*seeded_moves(K, images, moves), *extra]:
        got = find_interior_overlap(sims, moved)
        with monkeypatch.context() as patch:
            patch.setattr(complexes, "_in_one_simplex",
                          lambda first, *a: np.zeros(len(first), dtype=bool))
            assert got == find_interior_overlap(sims, moved), (mesh, v, moved[v])
        verdicts.add(got is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("grid", [unit_square_grid(2), box_grid(1)], ids=["square", "box"])
def test_a_reflection_reverses_every_sign_and_embeds(grid):
    mirrored = grid.vertices * np.r_[-1.0, np.ones(grid.ambient_dim - 1)]
    ball = grid._ball
    assert (_orientations(mirrored[ball.tops]) == -ball.signs).all()
    assert is_piecewise_embedding(PLMap(grid, mirrored))
    mirrored[1] = -mirrored[1]  # back over the origin: some of its cells fold
    assert not is_piecewise_embedding(PLMap(grid, mirrored))
    assert not pairwise_embedding(PLMap(grid, mirrored))


def test_boundary_crossing_with_kept_orientations_is_rejected():
    """A strip wound 400 degrees round a spiral: every triangle keeps its
    orientation, and only the boundary test sees the ends overlap."""
    K = strip(8)
    theta = np.radians(50.0) * K.vertices[:, 0]
    r = 1.0 + 0.5 * K.vertices[:, 1] + 0.02 * theta
    wound = PLMap(K, np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
    ball = K._ball
    signs = _orientations(wound.images[ball.tops]) * ball.signs
    assert len(set(signs.tolist())) == 1
    assert not pairwise_embedding(wound)
    assert not is_piecewise_embedding(wound)
    assert _embedding_failure(wound).startswith("the images of boundary simplices")
    unwound = PLMap(K, np.stack([r * np.cos(theta / 2), r * np.sin(theta / 2)], axis=1))
    assert is_piecewise_embedding(unwound) and pairwise_embedding(unwound)


def test_branched_double_cover_of_a_disk_is_rejected():
    """z -> z^2 on a 9-gon with uneven radii: every triangle stays positively
    oriented, the centre is a branch point and the boundary wraps twice."""
    K = fan_disk(9)
    z = K.vertices[:, 0] + 1j * K.vertices[:, 1]
    z[1:] *= 1.0 + 0.1 * np.arange(9)
    w = z ** 2
    cover = PLMap(K, np.stack([w.real, w.imag], axis=1))
    ball = K._ball
    assert (_orientations(cover.images[ball.tops]) == ball.signs).all()
    assert not pairwise_embedding(cover)
    assert not is_piecewise_embedding(cover)
    assert _embedding_failure(cover).startswith("the images of boundary simplices")


def two_triangles_sharing_a_vertex():
    return build_complex(2, [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
                         [(0, 1, 2), (0, 3, 4)])


def surface_in_r3():
    sq = unit_square_grid(2)
    return build_complex(3, np.hstack([sq.vertices, np.zeros((sq.num_vertices, 1))]),
                         sq.top_simplices)


def mixed_dimensions():
    return build_complex(2, [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)],
                         [(0, 1, 2), (1, 3), (4,)])


def kuhn_cubes(cells):
    """Unit cubes at the integer points ``cells``, six Kuhn tetrahedra each."""
    idx, tets = {}, []
    for cell in cells:
        for perm in itertools.permutations(range(3)):
            chain = [tuple(cell)]
            for axis in perm:
                chain.append(tuple(c + (a == axis) for a, c in enumerate(chain[-1])))
            tets.append(tuple(idx.setdefault(p, len(idx)) for p in chain))
    return build_complex(3, list(idx), tets)


def test_ball_test_needs_the_euler_characteristic_in_r3():
    """A ring of eight cubes is a solid torus: every triangle lies in one or
    two tetrahedra and its boundary is one connected closed surface, but a
    torus (chi = 0), so it is no ball."""
    ring = [(i, j, 0) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    assert kuhn_cubes(ring)._ball is None
    assert kuhn_cubes(ring + [(1, 1, 0)])._ball is not None
    assert kuhn_cubes([(0, 0, 0), (1, 1, 1)])._ball is None  # cubes sharing a vertex


def reference_is_sphere(facets) -> bool:
    """``_is_sphere`` by breadth-first search: every ridge in two facets,
    one component through the ridges, and for surfaces V - E + F = 2."""
    facets = [tuple(f) for f in np.asarray(facets).tolist()]
    holders = {}
    for i, f in enumerate(facets):
        for r in itertools.combinations(f, len(f) - 1):
            holders.setdefault(r, []).append(i)
    if not facets or any(len(h) != 2 for h in holders.values()):
        return False
    seen, queue = {0}, deque([0])
    while queue:
        f = facets[queue.popleft()]
        for r in itertools.combinations(f, len(f) - 1):
            fresh = set(holders[r]) - seen
            seen |= fresh
            queue.extend(fresh)
    euler = len({v for f in facets for v in f}) - len(holders) + len(facets)
    return len(seen) == len(facets) and (len(facets[0]) == 2 or euler == 2)


def cycles(lengths, seed=None):
    """Disjoint cycles of the given lengths as sorted edge rows, numbered
    along each cycle, or with vertex ids and edge order shuffled by ``seed``."""
    edges, start = [], 0
    for n in lengths:
        edges += [(start + k, start + (k + 1) % n) for k in range(n)]
        start += n
    ids = np.array(edges)
    if seed is not None:
        rng = np.random.default_rng(seed)
        ids = rng.permutation(start)[ids][rng.permutation(len(ids))]
    return np.sort(ids, axis=1)


def boundary(K):
    faces, counts, _ = complexes._ridges(np.array(K.top_simplices))
    return faces[counts == 1]


@pytest.mark.parametrize("seed", [None, 0, 1], ids=["in-order", "shuffled-0", "shuffled-1"])
@pytest.mark.parametrize("lengths", [[3], [5, 3], [4, 4, 7], [3, 6, 5, 9], [2000]],
                         ids=lambda lengths: "-".join(map(str, lengths)))
def test_sphere_test_agrees_with_a_search_on_cycles(lengths, seed):
    """One long cycle numbered in order is the slowest case for label
    propagation; only a single cycle is a 1-sphere."""
    facets = cycles(lengths, seed)
    assert complexes._is_sphere(facets) == reference_is_sphere(facets) == (len(lengths) == 1)


BOUNDARIES = {
    "annulus": (annulus, False),
    "fan-disk": (lambda: fan_disk(7), True),
    "u-shape": (u_shape, True),
    "tetrahedron": (lambda: standard_simplex(3), True),
    "box-level-1": (lambda: crystalline_subdivide(box_grid(1), 1)[0], True),
    "solid-torus": (lambda: kuhn_cubes([(i, j, 0) for i in range(3) for j in range(3)
                                        if (i, j) != (1, 1)]), False),
    "cubes-sharing-a-vertex": (lambda: kuhn_cubes([(0, 0, 0), (1, 1, 1)]), False),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_sphere_test_agrees_with_a_search_on_boundaries(name):
    make, expected = BOUNDARIES[name]
    facets = boundary(make())
    assert complexes._is_sphere(facets) == reference_is_sphere(facets) == expected


NON_BALLS = {
    "annulus": annulus,
    "shared-vertex": two_triangles_sharing_a_vertex,
    "surface-in-r3": surface_in_r3,
    "mixed-dimensions": mixed_dimensions,
    "simplex-in-r4": lambda: standard_simplex(4),
}


@pytest.mark.parametrize("name", sorted(NON_BALLS))
def test_non_balls_take_the_pairwise_test(monkeypatch, name):
    K = NON_BALLS[name]()
    assert K._ball is None
    seen = []
    real = plmaps.find_interior_overlap
    monkeypatch.setattr(plmaps, "find_interior_overlap",
                        lambda sims, *a: seen.append(list(sims)) or real(sims, *a))
    rng = np.random.default_rng(3)
    squashed = K.vertices.copy()
    squashed[:, -1] = 0.0
    verdicts = {is_piecewise_embedding(PLMap(K, squashed))}
    # every pair of a simplex in R^4 goes to the LP, so it gets one map
    scales = (0.0,) if K.ambient_dim > 3 else (0.0, 0.05, 0.3, 0.6, 0.9)
    for scale in scales:
        for _ in range(4 if scale else 1):
            f = PLMap(K, K.vertices + scale * rng.standard_normal(K.vertices.shape))
            verdict = is_piecewise_embedding(f)
            assert verdict == pairwise_embedding(f)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert seen and all(s == K.all_simplices() for s in seen)


def test_a_ball_mapped_into_another_dimension_takes_the_pairwise_test(monkeypatch):
    K = unit_square_grid(2)
    assert K._ball is not None
    seen = []
    real = plmaps.find_interior_overlap
    monkeypatch.setattr(plmaps, "find_interior_overlap",
                        lambda sims, *a: seen.append(list(sims)) or real(sims, *a))
    lifted = np.hstack([K.vertices, K.vertices[:, :1] ** 2])
    assert is_piecewise_embedding(PLMap(K, lifted))
    folded = np.hstack([K.vertices, np.zeros((K.num_vertices, 1))])
    folded[4] = (1.2, 0.5, 0.0)  # the centre vertex pushed past the right edge
    assert not is_piecewise_embedding(PLMap(K, folded))
    assert not pairwise_embedding(PLMap(K, folded))
    assert seen == [K.all_simplices()] * 2


def exact_sign(pts) -> int:
    p = [[Fraction(x) for x in row] for row in np.asarray(pts).tolist()]
    m = [[a - b for a, b in zip(row, p[0])] for row in p[1:]]
    if len(m) == 2:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    else:
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return (det > 0) - (det < 0)


def count_exact_calls(monkeypatch):
    calls = []
    real = complexes._exact_orientation
    monkeypatch.setattr(complexes, "_exact_orientation",
                        lambda pts: calls.append(1) or real(pts))
    return calls


def test_orientation_signs_are_exact_near_flat(monkeypatch):
    """Points a few ulps off a line (Kettner et al.'s classroom example) and
    off a plane: the float determinant's sign is wrong on many, the
    filtered signs on none."""
    calls = count_exact_calls(monkeypatch)
    ulp = 2.0 ** -53
    flat2 = np.array([[[0.5 + i * ulp, 0.5 + j * ulp], [12.0, 12.0], [24.0, 24.0]]
                      for i in range(32) for j in range(32)])
    rng = np.random.default_rng(9)
    base = np.array([[0.1, 0.2, 0.3], [12.0, 1.0, 4.0], [3.0, 17.0, 9.0]])
    normal = np.cross(base[1] - base[0], base[2] - base[0])
    normal /= np.linalg.norm(normal)
    apex = (base[0] + rng.uniform(-1, 2, (600, 2)) @ (base[1:] - base[0])
            + rng.integers(-8, 8, (600, 1)) * ulp * 20.0 * normal)
    flat3 = np.array([np.vstack([base, a]) for a in apex])
    for stack in (flat2, flat3):
        want = np.array([exact_sign(p) for p in stack])
        float_signs = np.sign(np.linalg.det(stack[:, 1:] - stack[:, :1]))
        assert (float_signs != want).sum() > 20
        assert _orientations(stack).tolist() == want.tolist()
    assert len(calls) > 600
    calls.clear()
    rng = np.random.default_rng(10)
    for n in (2, 3):
        stack = rng.normal(size=(200, n + 1, n)) * 10.0 ** rng.uniform(-3, 3, (200, 1, 1))
        assert _orientations(stack).tolist() == [exact_sign(p) for p in stack]
    assert not calls  # well-shaped simplices never leave the float filter


def test_near_flat_tops_take_the_exact_branch(monkeypatch):
    """Two tetrahedra on a thin base triangle, 1e-8 high: they pass the rmin
    gate, but their determinants fall inside the error bound."""
    K = build_complex(3, [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, 0.3, 1),
                          (0.5, 0.3, -1)], [(0, 1, 2, 3), (0, 1, 2, 4)])
    assert K._ball is not None
    calls = count_exact_calls(monkeypatch)
    for apex, embeds in ((2e-8, True), (-2e-8, False)):
        images = np.array([(0, 0, 0), (1, 0, 0), (0.5, 3e-8, 0), (0.5, 1e-8, apex),
                           (0.5, 1e-8, -4e-8)])
        f = PLMap(K, images)
        assert is_piecewise_embedding(f) is embeds
        assert pairwise_embedding(f) is embeds
    assert len(calls) == 4


def test_embedding_failure_names_the_reason():
    K = unit_square_grid(2)  # centre vertex 4
    ok = PLMap.identity(K)
    assert _embedding_failure(ok) is None
    images = K.vertices.copy()
    images[4] = (np.nan, 0.5)
    assert _embedding_failure(PLMap(K, images)) == "the image of vertex 4 is not finite"
    images = K.vertices.copy()
    images[4] = (0.25, 0.0)  # on the bottom edge, inside the image of (0, 1)
    assert _embedding_failure(PLMap(K, images)).startswith(
        "an image cell is flat: simplex (0, 1, 4) is degenerate (rmin=")
    images[4] = (0.25, 1e-11)
    assert _embedding_failure(PLMap(K, images)).startswith(
        "the image of simplex (0, 1, 4) is flat (rmin=")
    images[4] = (1.2, 0.5)
    assert _embedding_failure(PLMap(K, images)) == "top (1, 4, 5) flipped its orientation"
    ring = annulus()
    images = ring.vertices.copy()
    images[0] = (2.5, 1.5)  # a corner dragged across the hole
    assert _embedding_failure(PLMap(ring, images)).startswith("the images of simplices ")
