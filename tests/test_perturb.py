import itertools
import math

import numpy as np
import pytest

from jigglekit.errors import (
    DegenerateSimplex,
    InfeasibleDimensions,
    PreconditionViolated,
    StarNotTransverse,
)
from jigglekit.grassmann import (
    AffineFlat,
    Plane,
    _project_flat,
    affine_span,
    plane_from_spanning,
    point_flat_distance,
    project_along,
)
from jigglekit.perturb import (
    REFINE_ROUNDS,
    REFINE_STEPS,
    PerturbationRequest,
    PerturbationResult,
    _avoid_flats,
    _certificates,
    _join_margins,
    _perturb_vertices,
    _requested_stars,
    avoid_flats,
    perturb_vertex,
)
from jigglekit.transversality import _join_error, semitrans_margin

HORIZONTAL = Plane(np.array([[1.0, 0.0]]))
VERTICAL = Plane(np.array([[0.0, 1.0]]))


def only(results):
    """The one entry of a stacked kernel's output, raised if it failed."""
    (out,) = results
    if isinstance(out, Exception):
        raise out
    return out


def join_margins(jobs):
    """The joins of each job ``(point, stars, star_folis, folis)`` with
    their margins, ``[(u, si, idx, margin)]``, or the DegenerateSimplex of
    a job with a degenerate base: one stacked :func:`_join_margins` call
    on the jobs' stars."""
    reqs = [PerturbationRequest(point=point, epsilon=1.0, star_simplices=stars,
                                foliations=folis, star_foliations=star_folis)
            for point, stars, star_folis, folis in jobs]
    _, stars, coords = _requested_stars(reqs, [None] * len(reqs))
    margins, degenerate = _join_margins(stars, coords, np.stack([r.point for r in reqs]))
    return [_join_error(2) if flat else joins
            for flat, joins in zip(degenerate.tolist(), _certificates(stars, margins))]


def search(p, epsilon, flats, quotients=None, constraint_flat=None, seed=0, samples=64):
    """One problem of :func:`_avoid_flats`, with the usual defaults."""
    return (p, epsilon, flats, quotients, constraint_flat, seed, samples)


def test_request_rejects_nonpositive_budget():
    with pytest.raises(PreconditionViolated):
        PerturbationRequest(point=np.zeros(2), epsilon=0.0)


def test_avoid_flats_moves_off_a_line():
    """A point sitting on the flat ends up with positive clearance."""
    flat = affine_span(np.array([[0.0, 0.0], [1.0, 0.0]]))
    p, delta = only(_avoid_flats([search(np.array([0.5, 0.0]), 0.1, [flat], seed=4)]))
    assert delta > 0.0
    assert abs(p[1]) >= delta - 1e-12
    assert np.linalg.norm(p - [0.5, 0.0]) <= 0.1 + 1e-12


def test_avoid_flats_is_deterministic():
    flat = affine_span(np.array([[0.0, 0.0], [1.0, 1.0]]))
    a = only(_avoid_flats([search(np.array([0.2, 0.2]), 0.05, [flat], seed=9)]))
    b = only(_avoid_flats([search(np.array([0.2, 0.2]), 0.05, [flat], seed=9)]))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_avoid_flats_respects_constraint_flat():
    """Search pinned to the y axis, clearing a horizontal line through the
    start point in the quotient by the horizontal foliation."""
    wall = AffineFlat(np.array([0.0, 0.0]), VERTICAL)
    target = affine_span(np.array([[0.0, 1.0], [3.0, 1.0]]))
    p, delta = only(_avoid_flats([search(np.array([0.0, 1.0]), 0.2, [target],
                                         quotients=[HORIZONTAL], constraint_flat=wall,
                                         seed=1)]))
    assert p[0] == pytest.approx(0.0, abs=1e-12)
    assert delta > 0.0
    assert abs(p[1] - 1.0) >= delta - 1e-12


def test_avoid_flats_rejects_flats_that_fill_the_search_space():
    """Without a quotient, a line cannot be avoided inside a line."""
    from jigglekit.errors import InfeasibleDimensions
    line = AffineFlat(np.array([0.0, 1.0]), HORIZONTAL)
    target = affine_span(np.array([[0.3, 0.0], [0.3, 2.0]]))
    with pytest.raises(InfeasibleDimensions):
        only(_avoid_flats([search(np.array([0.3, 1.0]), 0.2, [target],
                                  constraint_flat=line, seed=1)]))


def test_perturb_vertex_keeps_the_point_when_margins_hold():
    """A star already far from every bad flat leaves the point alone."""
    star = [np.array([[2.0, 0.0]])]  # a single far-away vertex
    req = PerturbationRequest(point=np.array([0.0, 1.0]), epsilon=0.05,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=3)
    res = only(_perturb_vertices([req]))
    assert isinstance(res, PerturbationResult)
    assert res.moved == 0.0
    np.testing.assert_array_equal(res.point, [0.0, 1.0])
    assert res.achieved_delta > 0.0


def test_perturb_vertex_clears_a_join_through_the_apex():
    """The apex starts level with a base vertex; the edge join is degenerate
    in the quotient and the search must move off that flat."""
    star = [np.array([[1.0, 0.5]])]
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=12)
    res = only(_perturb_vertices([req]))
    assert res.moved > 0.0
    assert res.achieved_delta > 0.0
    assert min(m for *_, m in res.certificate) >= res.achieved_delta - 1e-9
    # the join edge is no longer horizontal
    assert abs(res.point[1] - 0.5) > 1e-9


def test_perturb_vertex_certificate_covers_all_faces():
    star = [np.array([[1.0, 0.3], [0.8, 1.1]])]
    req = PerturbationRequest(point=np.array([0.1, 0.6]), epsilon=0.08,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=7)
    res = only(_perturb_vertices([req]))
    # base faces of an edge: two vertices (d=1); the edge itself (d=2) is
    # skipped in R^2 against a rank-1 field since n - k = 1
    assert len(res.certificate) == 2
    assert all(m > 0 for *_, m in res.certificate)
    assert set(res.per_dimension_margins) == {1}


def test_perturb_vertex_determinism():
    star = [np.array([[1.0, 0.5]])]
    kw = dict(point=np.array([0.0, 0.5]), epsilon=0.1,
              star_simplices=star, foliations=[HORIZONTAL], seed=12)
    a = only(_perturb_vertices([PerturbationRequest(**kw)]))
    b = only(_perturb_vertices([PerturbationRequest(**kw)]))
    np.testing.assert_array_equal(a.point, b.point)
    assert a.achieved_delta == b.achieved_delta


def test_avoid_flats_and_perturb_vertex_are_stacks_of_one():
    flat = affine_span(np.array([[0.0, 0.0], [1.0, 0.0]]))
    problem = search(np.array([0.5, 0.0]), 0.1, [flat], seed=4)
    p, delta = avoid_flats(*problem)
    q, eps = only(_avoid_flats([problem]))
    np.testing.assert_array_equal(p, q)
    assert delta == eps
    with pytest.raises(PreconditionViolated):
        avoid_flats(np.array([np.nan, 0.0]), 0.1, [flat])
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=[np.array([[1.0, 0.5]])],
                              foliations=[HORIZONTAL], seed=12)
    a, b = perturb_vertex(req), only(_perturb_vertices([req]))
    np.testing.assert_array_equal(a.point, b.point)
    assert (a.achieved_delta, a.moved, a.per_dimension_margins) == \
        (b.achieved_delta, b.moved, b.per_dimension_margins)


def test_perturb_vertex_rejects_nontransverse_star():
    """A horizontal base edge cannot be fixed by moving the apex."""
    star = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    req = PerturbationRequest(point=np.array([0.5, 1.0]), epsilon=0.1,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=5)
    with pytest.raises(StarNotTransverse):
        only(_perturb_vertices([req]))


def test_perturb_vertex_reports_the_first_bad_star_simplex():
    """Star simplices are checked in order: edges as one stack, a triangle
    (above n-k) on its own, and the first failure decides the error."""
    triangle = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
    along = np.array([[0.0, 0.0], [1.0, 0.0]])      # inside the foliation
    collapsed = np.array([[1.0, 1.0], [1.0, 1.0]])
    for stars, error in (([triangle, along, collapsed], StarNotTransverse),
                         ([triangle, collapsed, along], DegenerateSimplex)):
        req = PerturbationRequest(point=np.array([0.5, 1.0]), epsilon=0.1,
                                  star_simplices=stars, foliations=[HORIZONTAL])
        with pytest.raises(error):
            only(_perturb_vertices([req]))


def test_perturb_vertex_constraint_flat_pins_the_search():
    wall = AffineFlat(np.array([0.0, 0.0]), VERTICAL)  # the y axis
    star = [np.array([[1.0, 0.5]])]
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=star, foliations=[HORIZONTAL],
                              constraint_flat=wall, seed=2)
    res = only(_perturb_vertices([req]))
    assert res.point[0] == pytest.approx(0.0, abs=1e-12)
    assert res.achieved_delta > 0.0


def test_perturb_vertex_rejects_constraint_inside_foliation():
    flat = AffineFlat(np.array([0.0, 0.5]), HORIZONTAL)
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=[np.array([[1.0, 0.2]])],
                              foliations=[HORIZONTAL],
                              constraint_flat=flat, seed=2)
    with pytest.raises(PreconditionViolated):
        only(_perturb_vertices([req]))


def test_two_foliations_are_cleared_simultaneously():
    star = [np.array([[1.0, 0.5]])]
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=star,
                              foliations=[HORIZONTAL, VERTICAL],
                              star_foliations=[(0, 1)], seed=21)
    res = only(_perturb_vertices([req]))
    d = res.point - np.array([1.0, 0.5])
    assert abs(d[0]) > 1e-9 and abs(d[1]) > 1e-9
    assert all(m > 0 for *_, m in res.certificate)
    assert len(res.certificate) == 2  # one join edge against two foliations


def test_join_margins_lists_every_join_with_its_direct_margin():
    """Two triangles sharing an edge in R^3 against a rank-1 and a rank-2
    field; one base edge runs along the rank-1 field and scores zero."""
    line = Plane(np.array([[0.0, 0.0, 1.0]]))
    sheet = Plane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    folis = [line, sheet]
    a, b = np.array([1.0, 0.2, 0.3]), np.array([0.1, 1.0, 0.7])
    stars = [np.array([a, b, [0.4, 0.3, 1.2]]),
             np.array([a, b, [0.9, 0.8, -0.5]]),
             np.array([[2.0, 0.0, 0.1], [2.0, 0.0, 1.1]])]
    star_folis = [(0, 1), (0,), (0, 1)]
    point = np.array([-0.3, -0.2, 0.05])
    got = only(join_margins([(point, stars, star_folis, folis)]))
    joins, margins = [(u, si, idx) for u, si, idx, _ in got], [m for *_, m in got]
    expected = []
    for u, v in enumerate(folis):
        cap = v.ambient_dim - v.rank
        for si, s in enumerate(stars):
            if u in star_folis[si]:
                for d in range(1, min(cap, len(s)) + 1):
                    expected.extend((u, si, idx) for idx in
                                    itertools.combinations(range(len(s)), d))
    assert list(joins) == expected
    zeros = 0
    for (u, si, idx), m in zip(joins, margins):
        try:
            direct = float(semitrans_margin(point, stars[si][list(idx)], folis[u]))
        except PreconditionViolated:
            direct, zeros = 0.0, zeros + 1
        assert m == direct
    assert zeros == 1


# ---------------------------------------------------------------------------
# the batched search against the point-by-point one
# ---------------------------------------------------------------------------

def reference_avoid_flats(p, epsilon, flats, quotients=None,
                          constraint_flat=None, seed=0, samples=64):
    """The search evaluated one candidate at a time: scalar distances, the
    samples in order keeping the first strictly better one, and a greedy
    sweep that moves as soon as a step improves."""
    point = np.asarray(p, dtype=float)
    if quotients is None:
        quotients = [None] * len(flats)
    basis = (np.eye(point.shape[0]) if constraint_flat is None
             else constraint_flat.direction.basis)
    ndof = basis.shape[0]
    tasks = [(quot, _project_flat(quot, flat))
             for flat, quot in zip(flats, quotients)]

    def objective(q):
        worst = np.inf
        for quot, proj_flat in tasks:
            qq = q if quot is None else project_along(quot, q)
            worst = min(worst, point_flat_distance(qq, proj_flat))
        return min(epsilon - float(np.linalg.norm(q - point)), worst)

    best_q = point
    best_val = objective(point)
    rng = np.random.default_rng([seed, 2026])
    dirs = rng.normal(size=(samples, ndof))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    radii = epsilon * rng.uniform(0.0, 1.0, size=samples) ** (1.0 / max(ndof, 1))
    for off in (dirs / norms[:, None]) * radii[:, None]:
        q = point + off @ basis
        val = objective(q)
        if val > best_val:
            best_q, best_val = q, val
    for step in REFINE_STEPS:
        improved = True
        rounds = 0
        while improved and rounds < REFINE_ROUNDS:
            improved = False
            rounds += 1
            for axis in basis:
                for sign in (1.0, -1.0):
                    q = best_q + sign * step * epsilon * axis
                    if np.linalg.norm(q - point) > epsilon:
                        continue
                    val = objective(q)
                    if val > best_val:
                        best_q, best_val = q, val
                        improved = True
    delta = max(best_val, 0.0)
    delta = min(delta, epsilon - float(np.linalg.norm(best_q - point)))
    return best_q, max(delta, 0.0)


def _random_plane(rng, n, k):
    return plane_from_spanning(rng.normal(size=(k, n)))


def _search_case(n, quotient, constraint_dim, seed):
    """A point, flats through or near it that the search can clear, and an
    optional quotient plane and constraint flat, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    point = rng.normal(size=n)
    quot = _random_plane(rng, n, 1) if quotient else None
    free = n - 1 if quotient else n
    ndof = n if constraint_dim is None else constraint_dim
    constraint = (None if constraint_dim is None else
                  AffineFlat(point, _random_plane(rng, n, constraint_dim)))
    flats = []
    for _ in range(int(rng.integers(1, 5))):
        dim = int(rng.integers(0, min(free, ndof)))
        base = point + rng.normal(size=n) * 10.0 ** rng.uniform(-7, -1)
        flats.append(AffineFlat(base, _random_plane(rng, n, dim) if dim else None))
    return point, flats, None if quot is None else [quot] * len(flats), constraint


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("n,constraint_dim",
                         [(2, None), (2, 1), (3, None), (3, 1), (3, 2)])
def test_avoid_flats_matches_the_point_by_point_search(n, constraint_dim, quotient):
    cases = itertools.product(range(4), [0, 1, 7, 64], [1e-6, 1e-3, 1.0])
    for seed, samples, epsilon in cases:
        point, flats, quots, constraint = _search_case(n, quotient, constraint_dim,
                                                       seed)
        kw = dict(quotients=quots, constraint_flat=constraint, seed=seed,
                  samples=samples)
        got_q, got_delta = only(_avoid_flats([search(point, epsilon, flats, **kw)]))
        want_q, want_delta = reference_avoid_flats(point, epsilon, flats, **kw)
        assert got_q.tobytes() == want_q.tobytes(), (seed, samples, epsilon)
        assert got_delta == want_delta, (seed, samples, epsilon)


@pytest.mark.parametrize("n", [2, 3])
def test_avoid_flats_stacks_match_the_point_by_point_search(n):
    """One stack of searches with their own flats, budgets, sample counts,
    quotients (one or two per search) and constraint dimensions, and rows
    that fail: each row gets the point-by-point result, or the error that
    it raises alone."""
    problems = []
    cases = itertools.product(range(3), [0, 7, 64], [1e-6, 1e-3, 1.0], [0, 1, 2],
                              [None] + list(range(1, n)))
    for seed, samples, epsilon, quotients, constraint_dim in cases:
        point, flats, quots, constraint = _search_case(n, quotients > 0,
                                                       constraint_dim, seed)
        if quotients == 2:
            other = _random_plane(np.random.default_rng(seed + 100), n, 1)
            quots = [q if i % 2 else other for i, q in enumerate(quots)]
        problems.append((point, epsilon, flats, quots, constraint, seed, samples))
    point = np.zeros(n)
    failing = {
        3: (point, 0.1, [AffineFlat(point, Plane(np.eye(n)))], None, None, 0, 8),
        11: (point, -0.1, [AffineFlat(point, None)], None, None, 0, 8),
        40: (point, 0.1, [AffineFlat(point, None)], [], None, 0, 8),
    }
    for at, problem in sorted(failing.items()):
        problems.insert(at, problem)
    for problem, got in zip(problems, _avoid_flats(problems)):
        try:
            only(_avoid_flats([problem]))
        except (InfeasibleDimensions, PreconditionViolated) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        want_q, want_delta = reference_avoid_flats(*problem)
        assert got[0].tobytes() == want_q.tobytes() and got[1] == want_delta
    assert sum(isinstance(got, Exception) for got in _avoid_flats(problems)) == 3


@pytest.mark.parametrize("samples", [7, 64])
def test_avoid_flats_keeps_the_first_of_tied_candidates(samples):
    """A vertical line through a point far from the origin and two
    horizontal lines mirrored about it: candidate coordinates fall on a
    grid of doubles coarse next to the budget, so several distinct samples
    tie on the best value."""
    point = np.array([1e9, -1e9])
    flats = [AffineFlat(point, VERTICAL),
             AffineFlat(point + [0.0, 3e-7], HORIZONTAL),
             AffineFlat(point - [0.0, 3e-7], HORIZONTAL)]
    got = only(_avoid_flats([search(point, 1e-6, flats, seed=3, samples=samples)]))
    want = reference_avoid_flats(point, 1e-6, flats, seed=3, samples=samples)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    # the case does tie
    rng = np.random.default_rng([3, 2026])
    dirs = rng.normal(size=(samples, 2))
    radii = 1e-6 * rng.uniform(0.0, 1.0, size=samples) ** 0.5
    qs = point + dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]
    vals = [min(1e-6 - float(np.linalg.norm(q - point)),
                *(point_flat_distance(q, f) for f in flats)) for q in qs]
    assert len({q.tobytes() for q, v in zip(qs, vals) if v == max(vals)}) > 1


def test_a_point_constraint_leaves_no_room():
    """A 0-dimensional constraint flat pins the point: any flat fills the
    zero-dimensional search domain."""
    line = affine_span(np.array([[0.0, 0.0], [1.0, 0.0]]))
    pin = AffineFlat(np.array([0.5, 0.0]), None)
    with pytest.raises(InfeasibleDimensions):
        only(_avoid_flats([search(np.array([0.5, 0.0]), 0.1, [line], constraint_flat=pin)]))
    p, delta = only(_avoid_flats([search(np.array([0.5, 0.0]), 0.1, [],
                                         constraint_flat=pin)]))
    np.testing.assert_array_equal(p, [0.5, 0.0])
    assert delta == 0.1


@pytest.mark.parametrize("kw", [
    dict(samples=-1), dict(samples=2.5), dict(samples=True),
    dict(epsilon=-0.1), dict(epsilon=math.nan), dict(epsilon=math.inf),
    dict(point=[math.nan, 0.0]), dict(point=[0.0, math.inf]),
    dict(seed=-5), dict(seed=1.5),
])
def test_search_inputs_are_checked(kw):
    # a negative seed used to reach numpy's default_rng and fail there with a
    # bare ValueError
    line = affine_span(np.array([[0.0, 0.0], [1.0, 0.0]]))
    args = dict(point=[0.5, 0.0], epsilon=0.1, samples=8, seed=0) | kw
    with pytest.raises(PreconditionViolated):
        only(_avoid_flats([search(args["point"], args["epsilon"], [line],
                                  seed=args["seed"], samples=args["samples"])]))
    with pytest.raises(PreconditionViolated):
        PerturbationRequest(point=args["point"], epsilon=args["epsilon"],
                            seed=args["seed"], samples=args["samples"])


def test_zero_budget_and_zero_samples_are_legal():
    line = affine_span(np.array([[0.0, 0.0], [1.0, 0.0]]))
    p, delta = only(_avoid_flats([search(np.array([0.5, 0.0]), 0.0, [line])]))
    np.testing.assert_array_equal(p, [0.5, 0.0])
    assert delta == 0.0
    got = only(_avoid_flats([search(np.array([0.5, 0.0]), 0.1, [line], seed=4, samples=0)]))
    want = reference_avoid_flats(np.array([0.5, 0.0]), 0.1, [line], seed=4,
                                 samples=0)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    assert got[1] > 0.0
